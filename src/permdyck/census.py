"""Ground truth over S_n: occurrence-count distributions, their cache, and
the checks of the recorded formulas and conjectures against them.

Two independent methods count the permutations of S_n by their number of
occurrences of tau.

The brute sweep (``brute_distribution``) visits all n! permutations.  The
compiled kernel walks the placements depth first and carries the census
state described below, so each permutation costs O(1) and every prefix is
shared; the pure kernel keeps the quadratic counting identity of
``_purecount`` and recounts each permutation.  The sweep is
embarrassingly parallel: S_n is partitioned by the choices of the first
few positions, each shard yields an independent histogram, and the merge
is component-wise addition, so results are identical for any number of
shards.  Above S_9 the shards run on one thread per CPU; the compiled
kernel releases the GIL while it sweeps, so they run in parallel (the pure
kernel holds it, so there they take turns).  S_n for n <= 9 is swept by
one call on the calling thread, which is faster than starting the threads.
Computed tables can be cached as human-readable JSON files under
``<cache>/<tau>/<n>.json`` with a content checksum.  Files are written to
a temporary name and renamed into place, so a reader never sees a partial
file; a file that does not parse, has the wrong shape or whose checksum
does not match its payload is refused with ``CacheError``.

The bounded census (``bounded_distributions``) counts only r <= r_max, in
time polynomial in n for fixed r_max.  It is the functional-equation
method of Noonan and Zeilberger (Adv. Appl. Math. 17, 1996), which
Nakamura and Zeilberger (Adv. Appl. Math. 50, 2013) show runs in
polynomial time.  A permutation is built left to right; before each
placement the state holds, for every unplaced value u in increasing order,

- ``above(u)``: the number of placed values greater than u, and
- ``two(u)``: the number of pairs of placed entries that u, placed later,
  completes to an occurrence.

Why this state is enough.  An occurrence is counted when its last entry
is placed, so placing v adds ``two(v)`` to the count.  A pair of placed
entries (a, v) is formed when its second entry v is placed, and the pairs
formed then depend only on ``above``: for (3,2,1), a > v > u, which adds
``above(v)`` to ``two(u)`` for every u < v; for (3,1,2), a > u > v, which
adds ``above(u)`` to ``two(u)`` for every u > v.  Placing v also adds 1 to
``above(u)`` for every u < v.  So the next state and the count depend on
the state alone, not on the order of the placed entries.  ``two`` never
decreases and every unplaced value is placed eventually, so
count + sum(two) is a lower bound on the final count, and a state with
count + sum(two) > r_max is dropped.  In a surviving state every
``two(u)`` is at most r_max, and ``above`` only ever enters a sum that
lands in ``two``; so capping both numbers at r_max + 1 changes neither
which states survive nor what they count.  The capped states are bounded
sequences (``above`` decreases weakly in u), so a layer holds polynomially
many of them.

The DP is layered: layer k maps each state after k placements to its
count vector (index c: occurrences completed so far), and is emptied while
layer k + 1 is built.  In layer k the all-zero state means the placed
values are exactly 1..k, so its vector is the distribution over S_k: one
pass at n_max serves every smaller n.  A layer of more than ``MAX_STATES``
states raises ``ResourceGuardError`` unless the bound is lifted.

The layers run in the selected kernel (``kernels.bounded_census``).  The
compiled kernel runs them with packed-byte states, one hash table per
layer and 128-bit counts, with the interpreter lock released, for
n_max <= 34; the pure ``_purecount.census_layers`` runs them otherwise,
and is the oracle the compiled census is tested against.  Both hold the
same states, so ``MAX_STATES`` trips at the same layer on either.  Peak
memory over the largest layer's states, for
``bounded_distributions(20, "312", 4, force=True)`` (268,833 states;
2 vCPU VM, Python 3.11): about 140 bytes a state compiled (0.4-0.6 s),
about 300 pure (13-16 s).

Importing this module loads no other module of the package, and none of
``json``, ``hashlib`` (a cache read or write imports both) and
``concurrent.futures`` (a sweep above S_9 does).  A pattern given as the
str ``"312"`` or ``"321"`` is checked without ``perms``, and ``kernels``
is imported only by a sweep and by the bounded census, so a ``table``
served from the cache loads neither, nor the compiled extension.
``verify_formulas`` and ``verify_conjectures`` import ``recorded`` (the
recorded rows, expanded in integers), and no function here loads
``series``.

The bijection audit, the occurrence oracle and the catalogs
(``audit_bijections``, ``oracle_distribution``, ``enumerate_class``,
``enumerate_tau_bases`` and their records) live in ``permdyck.audit``,
which needs ``perms`` and the encoders.  Each of their names is reachable
here as the same object, and loads that module on first access.
"""

from __future__ import annotations

import itertools
import math
import os
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from permdyck import _pattern_key

__all__ = [
    "DEFAULT_LIMIT",
    "ResourceGuardError",
    "CacheError",
    "DistributionTable",
    "MAX_STATES",
    "brute_distribution",
    "bounded_distributions",
    "oracle_distribution",
    "enumerate_class",
    "TauBaseCatalog",
    "enumerate_tau_bases",
    "CheckResult",
    "AuditReport",
    "audit_bijections",
    "VerificationRow",
    "VerificationReport",
    "verify_formulas",
    "verify_conjectures",
]

# the public names of ``permdyck.audit``, reachable here as the same objects
_AUDIT = frozenset(
    (
        "oracle_distribution",
        "enumerate_class",
        "TauBaseCatalog",
        "enumerate_tau_bases",
        "CheckResult",
        "AuditReport",
        "audit_bijections",
    )
)


def __getattr__(name: str):
    # the audit and the oracle sweeps are loaded on first access, so that a
    # command that only counts never compiles them, nor loads ``perms``
    if name in _AUDIT:
        from permdyck import audit

        return getattr(audit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_AUDIT})


DEFAULT_LIMIT = 10

# states one layer of the bounded census may hold, on either backend (the
# module docstring gives the bytes a state costs)
MAX_STATES = 200_000

# bump when the kernel/sharding semantics change; stale cache entries are recomputed
CODE_VERSION = "1"


class ResourceGuardError(RuntimeError):
    """Raised when an exhaustive sweep would exceed the configured size limit,
    or a layer of the bounded census would exceed ``MAX_STATES`` states."""


class CacheError(RuntimeError):
    """Raised when a cache file does not parse, has the wrong shape or
    fails its checksum."""


class DistributionTable(NamedTuple):
    """Histogram of occurrence counts over all of S_n for one pattern."""

    n: int
    pattern: str  # "312" or "321"
    counts: tuple[tuple[int, int], ...]  # sorted (r, count), zero entries omitted

    def count(self, r: int) -> int:  # shadows tuple.count
        for rr, c in self.counts:
            if rr == r:
                return c
        return 0

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)


def _guard(n: int, limit: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > limit:
        raise ResourceGuardError(
            f"n={n} exceeds the sweep limit {limit} (about {math.factorial(n):,} "
            f"permutations); raise the limit explicitly to proceed"
        )


def _hist_to_counts(hist: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((r, c) for r, c in enumerate(hist) if c)


def _shard_prefixes(n: int, threads: int) -> list[tuple[int, ...]]:
    """Partition S_n by the values of its first q positions, where q is the
    smallest length that gives at least four shards per thread (at most
    n - 1), and 0 for one thread."""
    q = 0
    if threads > 1:
        while q < n - 1 and math.perm(n, q) < 4 * threads:
            q += 1
    return list(itertools.permutations(range(1, n + 1), q))


# S_n for n at or below this is swept by one direct call: the compiled kernel
# sweeps S_9 in under 10 ms on one thread, less than starting the pool costs
_DIRECT_MAX_N = 9


def _sweep(n: int) -> tuple[list[int], list[int]]:
    cpus = os.cpu_count() or 1
    prefixes = _shard_prefixes(n, cpus if n > _DIRECT_MAX_N else 1)
    from permdyck import kernels

    if len(prefixes) == 1:
        return kernels.histogram_pair(n, ())
    # imported here, not at the top: concurrent.futures imports logging,
    # which every process that imports this module would otherwise pay for
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(cpus, len(prefixes))) as pool:
        parts = list(pool.map(kernels.histogram_pair, itertools.repeat(n), prefixes))
    h312 = [sum(col) for col in zip(*(part[0] for part in parts))]
    h321 = [sum(col) for col in zip(*(part[1] for part in parts))]
    return h312, h321


_memo: dict[int, tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]] = {}


# the fields of a cache file that its checksum covers
_CHECKSUMMED = ("n", "tau", "counts")


def _cache_payload(n: int, key: str, counts: tuple[tuple[int, int], ...]) -> dict:
    return dict(zip(_CHECKSUMMED, (n, key, {str(r): str(c) for r, c in counts}), strict=True))


def _checksum(payload: dict) -> str:
    # imported here: hashlib loads OpenSSL, which only cache reads and writes
    # need, and json only they (and JSON output) need
    import hashlib
    import json

    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _cache_path(cache_dir: str | Path, key: str, n: int) -> Path:
    return Path(cache_dir) / key / f"{n}.json"


def _cache_load(cache_dir: str | Path, key: str, n: int) -> Optional[tuple[tuple[int, int], ...]]:
    import json

    path = _cache_path(cache_dir, key, n)
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CacheError(f"unreadable cache file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CacheError(f"malformed cache file {path}: not a JSON object")
    if data.get("version") != CODE_VERSION:
        return None
    if data.get("checksum") != _checksum({field: data.get(field) for field in _CHECKSUMMED}):
        raise CacheError(f"checksum mismatch in {path}")
    if data.get("n") != n or data.get("tau") != key:
        return None
    try:
        return tuple(sorted((int(r), int(c)) for r, c in data["counts"].items()))
    except (AttributeError, TypeError, ValueError) as exc:
        raise CacheError(f"malformed counts in cache file {path}: {exc}") from exc


def _cache_store(cache_dir: str | Path, key: str, n: int, counts: tuple[tuple[int, int], ...]) -> None:
    import json

    path = _cache_path(cache_dir, key, n)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = _cache_payload(n, key, counts)
    record = dict(payload)
    record["checksum"] = _checksum(payload)
    record["version"] = CODE_VERSION
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def brute_distribution(
    n: int,
    tau,
    *,
    cache_dir: Optional[str | Path] = None,
    limit: int = DEFAULT_LIMIT,
) -> DistributionTable:
    """Exact histogram {r: #S_n(tau, r)} over all n! permutations.

    Both patterns are tabulated in one sweep and memoised, so asking for the
    second pattern at the same n is free.  ``cache_dir`` names the
    distribution cache; ``None`` or ``""`` means no cache.  The cache is
    read first; when it misses, the table comes from the memo or a sweep
    and both patterns' files are written.
    """
    key = _pattern_key(tau)
    _guard(n, limit)

    if cache_dir:
        cached = _cache_load(cache_dir, key, n)
        if cached is not None:
            return DistributionTable(n, key, cached)

    if n not in _memo:
        h312, h321 = _sweep(n)
        _memo[n] = (_hist_to_counts(h312), _hist_to_counts(h321))
    c312, c321 = _memo[n]
    if cache_dir:
        _cache_store(cache_dir, "312", n, c312)
        _cache_store(cache_dir, "321", n, c321)
    return DistributionTable(n, key, c312 if key == "312" else c321)


# ---------------------------------------------------------------------------
# bounded census

# a state entry (above, two), each part capped at r_max + 1, is packed into
# one byte as above * (r_max + 2) + two, so (r_max + 2) ** 2 <= 256
_MAX_R = 14


def bounded_distributions(
    n_max: int, tau, r_max: int, *, force: bool = False
) -> tuple[tuple[int, ...], ...]:
    """Exact (#S_n(tau, 0), ..., #S_n(tau, r_max)) for every n <= n_max, from
    one pass of the bounded census; entry n of the result is the tuple for n.

    Independent of the brute sweep and polynomial in n for fixed r_max.
    Raises ``ResourceGuardError`` when a layer would hold more than
    ``MAX_STATES`` states, unless ``force`` is set.

    >>> bounded_distributions(4, "321", 2)
    ((1, 0, 0), (1, 0, 0), (2, 0, 0), (5, 1, 0), (14, 6, 3))
    """
    key = _pattern_key(tau)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not 0 <= r_max <= _MAX_R:
        raise ValueError(f"r_max must be in 0..{_MAX_R}, got {r_max}")
    limit = None if force else MAX_STATES
    from permdyck import kernels

    got = kernels.bounded_census(n_max, key, r_max, limit)
    if isinstance(got, int):
        raise ResourceGuardError(
            f"layer {got} of the bounded census (n <= {n_max}, r <= {r_max}) "
            f"holds more than {limit:,} states; lift the state bound to proceed"
        )
    return got


# ---------------------------------------------------------------------------
# formula and conjecture verification


class VerificationRow(NamedTuple):
    """One checked count.  ``brute`` holds the counted value, which the
    bounded census supplies; the field keeps its name so that reports and
    their failure text stay as they were."""

    pattern: str
    r: int
    n: int
    brute: int
    predicted: int

    @property
    def passed(self) -> bool:
        return self.brute == self.predicted


class VerificationReport(NamedTuple):
    kind: str
    rows: tuple[VerificationRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def first_failure(self) -> Optional[VerificationRow]:
        for row in self.rows:
            if not row.passed:
                return row
        return None


def verify_formulas(n_max: int, *, force: bool = False) -> VerificationReport:
    """Bounded-census counts against the proven closed-form counts, r = 0, 1,
    2, both patterns, for every n <= n_max."""
    from permdyck import recorded

    counts = {key: bounded_distributions(n_max, key, 2, force=force) for key in ("312", "321")}
    rows = []
    for n in range(n_max + 1):
        for key in ("312", "321"):
            for r in (0, 1, 2):
                rows.append(
                    VerificationRow(
                        pattern=key,
                        r=r,
                        n=n,
                        brute=counts[key][n][r],
                        predicted=recorded.count_closed_form(key, r, n),
                    )
                )
    return VerificationReport(kind="formulas", rows=tuple(rows))


def verify_conjectures(n_max: int, *, force: bool = False) -> VerificationReport:
    """Bounded-census counts against the conjectured generating functions,
    the (pattern, r) pairs of ``recorded.CONJECTURAL``, for every n <= n_max.
    Each pattern takes one census, at its largest conjectured r."""
    from permdyck import recorded

    pairs = sorted(recorded.CONJECTURAL)
    # the pairs are sorted, so each pattern keeps its largest r
    counts = {
        key: bounded_distributions(n_max, key, r_max, force=force)
        for key, r_max in dict(pairs).items()
    }
    rows = []
    for key, r in pairs:
        predicted = recorded.coefficients(key, r, n_max)
        for n in range(n_max + 1):
            rows.append(
                VerificationRow(
                    pattern=key,
                    r=r,
                    n=n,
                    brute=counts[key][n][r],
                    predicted=predicted[n],
                )
            )
    return VerificationReport(kind="conjectures", rows=tuple(rows))
