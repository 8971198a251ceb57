"""Label normalization: Box-Cox, Yeo-Johnson and Quantile transforms (Sec. 5.4).

Tensor-program latencies are heavily right-skewed (most programs are fast,
a few are orders of magnitude slower).  The paper normalises labels with the
Box-Cox power transformation fitted by maximum likelihood on the training
set, trains the predictor in the transformed space and inverse-transforms the
predictions for error measurement.  Yeo-Johnson and Quantile transforms are
implemented for the Table 3 ablation.

Every transform also standardises (zero mean, unit variance) after the power
mapping so the regression head always sees well-scaled targets.

``scipy.stats`` (about 0.5 s to import) is imported only where a fit or a
forward transform needs it: a served model runs just the numpy inverses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import TrainingError


class LabelTransform:
    """Base class: fit on training labels, transform/inverse-transform arrays."""

    name = "identity"

    def __init__(self) -> None:
        self._mean = 0.0
        self._std = 1.0
        self._fitted = False

    # -- mapping to override ------------------------------------------------
    def _forward(self, y: np.ndarray) -> np.ndarray:
        return y

    def _inverse(self, y: np.ndarray) -> np.ndarray:
        return y

    def _fit_mapping(self, y: np.ndarray) -> None:
        """Fit mapping-specific parameters (λ for power transforms, ...)."""

    # -- public API ----------------------------------------------------------
    def fit(self, y: np.ndarray) -> "LabelTransform":
        """Fit the transform on training labels (strictly positive latencies)."""
        y = np.asarray(y, dtype=np.float64)
        if y.size == 0:
            raise TrainingError("cannot fit a label transform on an empty array")
        if np.any(~np.isfinite(y)):
            raise TrainingError("labels contain non-finite values")
        self._fit_mapping(y)
        mapped = self._forward(y)
        self._mean = float(mapped.mean())
        self._std = float(mapped.std())
        if self._std < 1e-12:
            self._std = 1.0
        self._fitted = True
        return self

    def transform(self, y: np.ndarray) -> np.ndarray:
        """Map labels into the normalised training space."""
        self._require_fitted()
        mapped = self._forward(np.asarray(y, dtype=np.float64))
        return (mapped - self._mean) / self._std

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        """Map predictions back to the original label space (seconds)."""
        self._require_fitted()
        mapped = np.asarray(z, dtype=np.float64) * self._std + self._mean
        return self._inverse(mapped)

    def fit_transform(self, y: np.ndarray) -> np.ndarray:
        """Fit then transform."""
        return self.fit(y).transform(y)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise TrainingError(f"{type(self).__name__} used before fit()")


class IdentityTransform(LabelTransform):
    """No power mapping; only standardisation ("original Y" in Table 3)."""

    name = "none"


class LogTransform(LabelTransform):
    """Plain log transform (not in the paper's ablation, useful as a baseline)."""

    name = "log"

    def _forward(self, y: np.ndarray) -> np.ndarray:
        return np.log(np.maximum(y, 1e-12))

    def _inverse(self, y: np.ndarray) -> np.ndarray:
        return np.exp(y)


class BoxCoxTransform(LabelTransform):
    """Box-Cox power transform with maximum-likelihood λ (the paper's choice)."""

    name = "box-cox"

    def __init__(self) -> None:
        super().__init__()
        self.lambda_: Optional[float] = None

    def _fit_mapping(self, y: np.ndarray) -> None:
        if np.any(y <= 0):
            raise TrainingError("Box-Cox requires strictly positive labels")
        # boxcox_normmax fits λ by maximising the log-likelihood.  Degenerate
        # inputs (near-constant arrays) make the optimiser fail or return
        # extreme λ; fall back to λ=0 (the log transform) in those cases and
        # clamp λ to a numerically safe range otherwise.
        if y.size < 4 or float(y.std()) < 1e-12 * max(float(y.mean()), 1e-30):
            self.lambda_ = 0.0
            return
        from scipy import stats

        try:
            fitted = float(stats.boxcox_normmax(y, method="mle"))
        except Exception:
            fitted = 0.0
        if not np.isfinite(fitted):
            fitted = 0.0
        self.lambda_ = float(np.clip(fitted, -5.0, 5.0))

    def _forward(self, y: np.ndarray) -> np.ndarray:
        if self.lambda_ is None:
            raise TrainingError("BoxCoxTransform.transform called before fit")
        from scipy import stats

        return stats.boxcox(np.maximum(y, 1e-12), lmbda=self.lambda_)

    def _inverse(self, y: np.ndarray) -> np.ndarray:
        lam = self.lambda_
        if lam is None:
            raise TrainingError("BoxCoxTransform.inverse_transform called before fit")
        if abs(lam) < 1e-12:
            return np.exp(y)
        # Invert (x^λ - 1) / λ, clamping into the valid domain so extreme
        # (bad) predictions map to tiny positive latencies instead of NaN.
        base = np.maximum(y * lam + 1.0, 1e-12)
        return base ** (1.0 / lam)


class YeoJohnsonTransform(LabelTransform):
    """Yeo-Johnson power transform (handles zeros/negatives)."""

    name = "yeo-johnson"

    def __init__(self) -> None:
        super().__init__()
        self.lambda_: Optional[float] = None

    def _fit_mapping(self, y: np.ndarray) -> None:
        from scipy import stats

        self.lambda_ = float(stats.yeojohnson_normmax(y))

    def _forward(self, y: np.ndarray) -> np.ndarray:
        if self.lambda_ is None:
            raise TrainingError("YeoJohnsonTransform.transform called before fit")
        from scipy import stats

        return stats.yeojohnson(y, lmbda=self.lambda_)

    def _inverse(self, y: np.ndarray) -> np.ndarray:
        lam = self.lambda_
        if lam is None:
            raise TrainingError("YeoJohnsonTransform.inverse_transform called before fit")
        out = np.empty_like(y)
        positive = y >= 0
        if abs(lam) < 1e-12:
            out[positive] = np.expm1(y[positive])
        else:
            out[positive] = np.maximum(y[positive] * lam + 1.0, 1e-12) ** (1.0 / lam) - 1.0
        two_minus = 2.0 - lam
        if abs(two_minus) < 1e-12:
            out[~positive] = -np.expm1(-y[~positive])
        else:
            out[~positive] = 1.0 - np.maximum(1.0 - y[~positive] * two_minus, 1e-12) ** (1.0 / two_minus)
        return out


class QuantileTransform(LabelTransform):
    """Map labels to a standard normal via their empirical quantiles."""

    name = "quantile"

    def __init__(self, num_quantiles: int = 256) -> None:
        super().__init__()
        self.num_quantiles = int(num_quantiles)
        self._quantiles: Optional[np.ndarray] = None
        self._references: Optional[np.ndarray] = None

    def _fit_mapping(self, y: np.ndarray) -> None:
        from scipy import stats

        probs = np.linspace(0.0, 1.0, min(self.num_quantiles, max(y.size, 2)))
        self._quantiles = np.quantile(y, probs)
        # Reference points of the standard normal (clipped for stability).
        self._references = stats.norm.ppf(np.clip(probs, 1e-5, 1 - 1e-5))

    def _forward(self, y: np.ndarray) -> np.ndarray:
        if self._quantiles is None or self._references is None:
            raise TrainingError("QuantileTransform.transform called before fit")
        return np.interp(y, self._quantiles, self._references)

    def _inverse(self, y: np.ndarray) -> np.ndarray:
        if self._quantiles is None or self._references is None:
            raise TrainingError("QuantileTransform.inverse_transform called before fit")
        return np.interp(y, self._references, self._quantiles)


_TRANSFORMS = {
    "none": IdentityTransform,
    "log": LogTransform,
    "box-cox": BoxCoxTransform,
    "yeo-johnson": YeoJohnsonTransform,
    "quantile": QuantileTransform,
}


def make_transform(name: str) -> LabelTransform:
    """Instantiate a label transform by name."""
    try:
        return _TRANSFORMS[name]()
    except KeyError as exc:
        raise TrainingError(
            f"unknown label transform {name!r}; available: {', '.join(sorted(_TRANSFORMS))}"
        ) from exc
