"""Ordered map over independent work items."""

from __future__ import annotations

from typing import Callable, Iterable


def ordered_map(fn: Callable, items: Iterable, workers: int) -> list:
    """``[fn(item) for item in items]``, on ``workers`` threads when above 1.

    Results keep the order of ``items``, so whatever is built from them is
    byte-identical for every worker count.
    """
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
