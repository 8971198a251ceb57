"""Cost-model-guided schedule search (the Fig. 14b experiment)."""

from repro.search.ansor import (
    SearchResult,
    evolutionary_search,
    search_model_schedules,
    search_steps,
)

__all__ = ["SearchResult", "evolutionary_search", "search_model_schedules", "search_steps"]
