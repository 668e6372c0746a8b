"""Yao's formula for the expected number of blocks (granules) touched.

Paper §5.2 uses the classic result of [YAO77]: a database of ``n``
records is packed into ``m`` blocks of ``n / m`` records each; selecting
``k`` distinct records uniformly at random touches

``E[blocks] = m * (1 - C(n - n/m, k) / C(n, k))``

distinct blocks.  The paper's simulator and model both need this to map
"records accessed per transaction" to "granules locked / disk reads".
"""

from __future__ import annotations

import functools
import math

from repro.errors import ConfigurationError

__all__ = ["yao_blocks", "expected_granules",
           "zipf_collision_multiplier"]


def yao_blocks(total_records: int, blocks: int, selected: int) -> float:
    """Expected number of distinct blocks hit by a uniform random sample.

    Parameters
    ----------
    total_records:
        Number of records in the database (``n`` in [YAO77]).
    blocks:
        Number of blocks the records are packed into (``m``).  Records
        per block is ``total_records / blocks`` and must be integral.
    selected:
        Number of distinct records drawn without replacement (``k``).

    Returns
    -------
    float
        Expected number of distinct blocks containing at least one of
        the selected records.
    """
    if total_records <= 0 or blocks <= 0:
        raise ConfigurationError("records and blocks must be positive")
    if total_records % blocks:
        raise ConfigurationError(
            f"{total_records} records do not pack evenly into "
            f"{blocks} blocks"
        )
    if selected < 0 or selected > total_records:
        raise ConfigurationError(
            f"cannot select {selected} of {total_records} records"
        )
    if selected == 0:
        return 0.0
    per_block = total_records // blocks
    # P(a given block untouched) = C(n - n/m, k) / C(n, k)
    #   = prod_{i=0..k-1} (n - n/m - i) / (n - i)
    p_untouched = 1.0
    for i in range(selected):
        numerator = total_records - per_block - i
        if numerator <= 0:
            p_untouched = 0.0
            break
        p_untouched *= numerator / (total_records - i)
    return blocks * (1.0 - p_untouched)


def expected_granules(records_accessed: int, granules: int,
                      records_per_granule: int) -> float:
    """Expected granules accessed by a transaction (paper's ``g(t)``).

    Thin wrapper over :func:`yao_blocks` in the paper's vocabulary:
    the site database has ``granules`` granules of
    ``records_per_granule`` records, and the transaction touches
    ``records_accessed`` distinct records uniformly at random.
    """
    total = granules * records_per_granule
    if records_accessed > total:
        raise ConfigurationError(
            f"transaction touches {records_accessed} records but the "
            f"site only stores {total}"
        )
    return yao_blocks(total, granules, records_accessed)


@functools.lru_cache(maxsize=512)
def zipf_collision_multiplier(s: float, granules: int,
                              requests: int = 1) -> float:
    """Collision inflation of Zipf(s)-skewed granule access.

    Under skewed access with granule probabilities ``p_i``, two
    transactions of ``requests`` granule draws each both touch
    granule ``i`` with probability ``(1 - (1 - p_i)^L)^2``
    (``L = requests``): a transaction locks each *distinct* granule
    once, so repeated draws on a hot granule neither add locks nor
    add conflict opportunities.  Against the uniform pairwise overlap
    ``L^2 / m`` this gives the multiplier

    ``M = (m / L^2) * sum((1 - (1 - p_i)^L)^2)``

    by which the lock model shrinks its uniformly-accessed database
    (the same reduction the b-c hot-spot rule uses).  At ``L = 1``
    this is the classic ``m * sum(p_i^2)``; for larger transactions
    the hot granules saturate (a granule cannot be held with
    probability above 1), keeping the multiplier finite as ``s``
    crosses 1 instead of predicting runaway contention the simulator
    never shows.

    ``s == 0`` returns exactly ``1.0`` — no floating-point summation —
    so an unskewed scenario is bit-identical to the uniform Yao
    baseline.
    """
    if granules <= 0:
        raise ConfigurationError("granules must be positive")
    if requests < 1:
        raise ConfigurationError("requests must be >= 1")
    if not 0.0 <= s < 16.0 or s != s:
        raise ConfigurationError(
            f"Zipf exponent must lie in [0, 16), got {s}")
    if s == 0.0 or granules == 1:
        return 1.0
    weights = [(i + 1) ** -s for i in range(granules)]
    total = math.fsum(weights)
    if requests == 1:
        sum_sq = math.fsum(w * w for w in weights)
        return granules * sum_sq / (total * total)
    touched = math.fsum((1.0 - (1.0 - w / total) ** requests) ** 2
                        for w in weights)
    return granules * touched / (requests * requests)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient (exposed for the test suite)."""
    return math.comb(n, k)
