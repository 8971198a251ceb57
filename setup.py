"""Package metadata and the ``cdmpp`` console entry point.

The offline evaluation environment has no ``wheel`` package, so PEP 660
editable installs fail; use ``pip install -e . --no-use-pep517
--no-build-isolation`` (or ``python setup.py develop``) instead.
"""

from pathlib import Path

from setuptools import find_packages, setup

_VERSION_GLOBALS: dict = {}
exec((Path(__file__).parent / "src" / "repro" / "version.py").read_text(), _VERSION_GLOBALS)

setup(
    name="cdmpp-repro",
    version=_VERSION_GLOBALS["__version__"],
    description=(
        "Reproduction of CDMPP: a device-model agnostic framework for "
        "latency prediction of tensor programs (EuroSys 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["cdmpp=repro.cli:main"]},
)
