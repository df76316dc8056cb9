"""Ground truth over S_n: occurrence-count distributions, pattern-base
catalogs, and full bijection audits.

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

Importing this module loads only ``perms`` and ``kernels`` of the package,
and none of ``json``, ``hashlib`` (a cache read or write imports both) and
``concurrent.futures`` (a sweep above S_9 does).
``audit_bijections`` imports ``bijections`` and ``paths`` when it runs,
and ``verify_formulas`` and ``verify_conjectures`` import ``recorded``
(the recorded rows, expanded in integers), so the brute sweep and the
bounded census never load them, and no function here loads ``series``.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from permdyck import kernels, perms
from permdyck.perms import (
    Permutation,
    _pattern_key,
    as_pattern,
    all_permutations,
    count_occurrences_fast,
    find_occurrences,
    left_to_right_maxima,
    tau_base,
)

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


def oracle_distribution(n: int, tau) -> dict[int, int]:
    """Distribution computed entirely with the brute-force occurrence finder
    (any pattern of length >= 2).  Slow; this is the independent oracle used
    to validate the kernel path."""
    out: dict[int, int] = {}
    for rho in all_permutations(n):
        r = find_occurrences(rho, tau).count
        out[r] = out.get(r, 0) + 1
    return out


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
    got = kernels.bounded_census(n_max, key, r_max, limit)
    if isinstance(got, int):
        raise ResourceGuardError(
            f"layer {got} of the bounded census (n <= {n_max}, r <= {r_max}) "
            f"holds more than {limit:,} states; lift the state bound to proceed"
        )
    return got


def enumerate_class(
    n: int, tau, r: int, *, limit: int = DEFAULT_LIMIT
) -> Iterator[Permutation]:
    """All permutations in S_n with exactly r occurrences of tau, in
    lexicographic order."""
    _guard(n, limit)
    tau = as_pattern(tau)
    for rho in all_permutations(n):
        if count_occurrences_fast(rho, tau) == r:
            yield rho


class TauBaseCatalog(NamedTuple):
    """All pattern-bases with exactly r occurrences: the permutations that
    equal their own base.  Their lengths are at most 3r."""

    pattern: str
    r: int
    bases: tuple[Permutation, ...]


def enumerate_tau_bases(tau, r: int) -> TauBaseCatalog:
    """Search S_k for 3 <= k <= 3r (every entry of a base participates in an
    occurrence, so bases cannot be longer than 3r).

    >>> [tuple(b) for b in enumerate_tau_bases("312", 1).bases]
    [(3, 1, 2)]
    """
    key = _pattern_key(tau)
    tau = as_pattern(tau)
    if r < 0 or r > 2:
        raise ValueError("base catalogs are tabulated for r in {0, 1, 2}")
    if r == 0:
        return TauBaseCatalog(key, 0, (Permutation(),))
    found = []
    for k in range(3, 3 * r + 1):
        for rho in all_permutations(k):
            if count_occurrences_fast(rho, tau) != r:
                continue
            if tau_base(rho, tau) == rho:
                found.append(rho)
    return TauBaseCatalog(key, r, tuple(found))


# ---------------------------------------------------------------------------
# audits


class CheckResult(NamedTuple):
    name: str
    passed: bool
    counterexample: Optional[str] = None

    def __str__(self) -> str:
        if self.passed:
            return f"{self.name}: ok"
        return f"{self.name}: FAIL ({self.counterexample})"


class AuditReport(NamedTuple):
    n: int
    pattern: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _image_checks(key: str) -> Callable[..., Optional[int]]:
    """``check(rho, path, fail)``: the checks of ``audit_bijections`` that
    read one encoder image, for the pattern ``key``, on the permutation rho
    and its image ``path``.  It calls ``fail(name, counterexample)`` for
    each check that fails, and returns rho's occurrence count, or None when
    ``path`` is not a valid path (the other checks then read nothing)."""
    from permdyck import bijections, paths

    tau = as_pattern(key)
    # each rho is a ``Permutation`` and tau is the pattern key names, so the
    # kernel's counts apply to rho as it is
    heights_fn = perms.heights_312 if key == "312" else perms.heights_321
    which = 0 if key == "312" else 1
    matches = perms._matcher(tau)

    def check(rho: Permutation, path: str, fail: Callable[[str, str], object]) -> Optional[int]:
        n = len(rho)
        try:
            info = paths.path_info(path)
        except paths.PathError:
            fail("valid-image", f"{rho} -> {path}")
            return None  # the remaining checks read the path
        if len(info.heights) != n:
            fail("valid-image", f"{rho} -> {path}")
        if not info.psi_shaped:
            fail("jump-sandwich", f"{rho} -> {path}")

        if info.heights != heights_fn(rho):
            fail("down-step-heights", f"{rho} -> {path}")

        # ``peaks`` holds every peak's own index, plus 0, which is no position
        if not set(left_to_right_maxima(rho)) <= set(info.peaks):
            fail("maxima-are-peaks", f"{rho} -> {path}")

        # at least h down-steps right of a height-h down-step (room: n - i
        # for the i-th, however many the image has); at least d up-steps
        # right of a depth-d jump
        room = range(n - 1, n - 1 - len(info.heights), -1)
        if any(map(operator.lt, room, info.heights)):
            fail("descents-available", f"{rho} -> {path}")
        for span in info.spans:
            if path.count(paths.UP, span.end) < span.depth:
                fail("ups-after-jump", f"{rho} -> {path}")

        r = kernels.count_pair(rho)[which]
        s = path.count(paths.JUMP)
        if not bijections._jumps_within_occurrences(s, r):
            fail("jump-count-bound", f"{rho}: {s} jumps, {r} occurrences")

        if key == "312":
            try:
                decoded = bijections.decode_psi312(path)
            except bijections.NotInImageError:
                decoded = None  # a valid path outside psi312's image
            if decoded != rho:
                fail("decode-psi312-roundtrip", f"{rho} -> {path}")
            single = bijections._single_occurrence_shape_312(info)
            if single != (r == 1):
                fail("single-occurrence-shape", f"{rho} -> {path}, r={r}")

        if info.spans and (len(info.spans) == 1 or r in (1, 2)):
            predicted = bijections._predict(rho, key, info)
            # a triple is an occurrence iff its positions increase within
            # 1..n and its values pass the oracle's own test
            wrong = [
                (a, b, c)
                for a, b, c in predicted
                if not (0 < a < b < c <= n and matches((rho[a - 1], rho[b - 1], rho[c - 1])))
            ]
            if wrong:
                fail("predicted-subset", f"{rho}: {sorted(set(wrong))}")
            if r in (1, 2) and len(predicted) != r:
                fail("predicted-total", f"{rho}: predicted {len(predicted)}, r={r}")
        return r

    return check


def _audit_loop(
    hosts: Sequence[Permutation], images: Sequence[str], check: Callable[..., Optional[int]]
) -> tuple[dict[str, int], list[int], list[int]]:
    """What ``kernels.audit_images`` answers, found by ``check`` (of
    ``_image_checks``) run on each host and its image in turn: the rank of
    the first host failing each check, and the ranks of the hosts with no
    and with one occurrence whose image is a valid path."""
    first: dict[str, int] = {}
    counts: tuple[list[int], list[int]] = ([], [])
    for rank, (rho, path) in enumerate(zip(hosts, images)):
        r = check(rho, path, lambda name, _: first.setdefault(name, rank))
        if r == 0 or r == 1:
            counts[r].append(rank)
    return first, *counts


def audit_bijections(n: int, tau, *, limit: int = DEFAULT_LIMIT) -> AuditReport:
    """Sweep all of S_n and check every structural claim about the encoder
    for ``tau``: injectivity, validity and the jump sandwich condition,
    maxima mapping to peaks, the jump-count bound, jump-freeness exactly on
    avoiders, the avoider image being all of D_n, decoder round-trips, and
    the predicted occurrence triples being genuine (with exact totals for
    hosts having one or two occurrences).

    The encoder runs once per permutation.  The checks that read one image
    (``_image_checks``) run in ``kernels.audit_images``, one compiled call
    over all n! images, which names the first permutation failing each
    check and the permutations with no and with one occurrence.  Where the
    compiled audit does not run (the pure kernel, n > 12, an image that is
    not a str) its None sends the audit through ``_audit_loop``, which
    finds the same by running those checks on each permutation, the oracle
    the compiled audit is tested against.  On either route the check's own
    Python body, run again on each first failing permutation, writes the
    counterexample, and a compiled verdict it does not repeat raises
    ``RuntimeError``.  Python also checks injectivity, the avoiders
    (against the staircase map and the avoider decoder), the one-occurrence
    bases (by the brute-force oracle) and the Dyck paths, walked in
    ``paths.enumerate_paths`` order.
    """
    from permdyck import bijections, paths

    key = _pattern_key(tau)
    _guard(n, limit)
    tau = as_pattern(tau)
    encode = bijections.psi312 if key == "312" else bijections.psi321
    decode = bijections.decode_312_avoiding if key == "312" else bijections.decode_321_avoiding

    failures: dict[str, str] = {}

    def fail(name: str, detail: str) -> None:
        failures.setdefault(name, detail)

    hosts = list(all_permutations(n))
    images = list(map(encode, hosts))
    if len(set(images)) < len(images):
        first: dict[str, Permutation] = {}
        for rho, path in zip(hosts, images):
            if path in first:
                fail("injective", f"{first[path]} and {rho} share image {path}")
                break
            first[path] = rho

    check = _image_checks(key)
    got = kernels.audit_images(n, key, images)
    failed, avoiders, singles = _audit_loop(hosts, images, check) if got is None else got
    # the check's body, run again on the first failing host, writes the text
    for name, rank in failed.items():
        texts: dict[str, str] = {}
        check(hosts[rank], images[rank], texts.setdefault)
        if name not in texts:
            raise RuntimeError(f"the compiled audit fails {name} on {hosts[rank]}, its Python body does not")
        fail(name, texts[name])

    # each Dyck path is decoded once, in enumeration order, for the avoider
    # round trip and for decode-covers-dyck; an avoider image outside D_n
    # is decoded on its own
    decoded = {path: decode(path) for path in paths.enumerate_paths(n, 0)}
    for rank in avoiders:
        rho, path = hosts[rank], images[rank]
        if path != bijections.psi_avoiding(rho):
            fail("avoider-staircase-agreement", f"{rho}")
        back = decoded[path] if path in decoded else decode(path)
        if back != rho:
            fail("decode-roundtrip", f"{rho} -> {path} -> {back}")
    # the brute-force oracle runs only where the whole occurrence set is read
    for rank in singles:
        rho = hosts[rank]
        if perms._base_of(rho, find_occurrences(rho, tau)) != tau:
            fail("single-occurrence-base", f"{rho}")

    cn = perms.catalan_number(n)
    avoider_images = {images[rank] for rank in avoiders}
    if len(avoiders) != cn or len(avoider_images) != cn:
        fail("avoider-count", f"{len(avoiders)} avoiders, {len(avoider_images)} images, C_n={cn}")
    if avoider_images != decoded.keys():
        fail("avoider-image-is-all-dyck", f"missing {sorted(decoded.keys() - avoider_images)[:3]}")

    # decoding every Dyck path yields an avoider that encodes back to it
    for path, rho in decoded.items():
        if count_occurrences_fast(rho, tau) != 0 or encode(rho) != path:
            fail("decode-covers-dyck", f"{path} -> {rho}")
            break

    names = [
        "injective",
        "valid-image",
        "jump-sandwich",
        "down-step-heights",
        "maxima-are-peaks",
        "descents-available",
        "ups-after-jump",
        "jump-count-bound",
        "avoider-staircase-agreement",
        "decode-roundtrip",
        "decode-covers-dyck",
        "avoider-count",
        "avoider-image-is-all-dyck",
        "single-occurrence-base",
        "predicted-subset",
        "predicted-total",
    ]
    if key == "312":
        names[13:13] = ["decode-psi312-roundtrip", "single-occurrence-shape"]
    checks = tuple(
        CheckResult(name, name not in failures, failures.get(name)) for name in names
    )
    return AuditReport(n=n, pattern=key, checks=checks)


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
