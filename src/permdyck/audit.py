"""The bijection audit and the oracle sweeps over S_n: the checks of
everything the encoders claim, and the slow, independent enumerations that
the fast paths are tested against.

- ``audit_bijections`` sweeps S_n and checks every structural claim about
  the encoder of (3,1,2) or (3,2,1), with ``CheckResult`` per check and
  ``AuditReport`` per sweep.  ``_image_checks`` holds the checks that read
  one encoder image.  The compiled kernel runs them over S_n in one call
  (``kernels.audit_images``): on images it builds itself for the stock
  encoder (the walk), or on the encoder's images (the images route).
  ``_audit_loop`` runs them on each permutation in turn where neither runs.
- ``oracle_distribution`` counts S_n by occurrences with the brute-force
  occurrence finder alone, the oracle of ``census.brute_distribution``.
- ``enumerate_class`` lists the permutations of S_n with exactly r
  occurrences, and ``enumerate_tau_bases`` (``TauBaseCatalog``) the
  pattern-bases with r occurrences.

These names live apart from ``census`` because they need permutations
(``perms``) and the audit needs the encoders (``bijections`` and
``paths``, imported when it runs), and no counting command does:
``table``, ``verify --formulas`` and ``verify --conjectures`` load
``census`` without this module, and of the commands only ``bases`` loads
it.  ``census`` keeps each public name of this module reachable as
``census.<name>``, the same object, loading this module on first access.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from permdyck import _pattern_key, kernels, perms
from permdyck.census import DEFAULT_LIMIT, _guard
from permdyck.perms import (
    Permutation,
    as_pattern,
    all_permutations,
    count_occurrences_fast,
    find_occurrences,
    left_to_right_maxima,
    tau_base,
)

__all__ = [
    "oracle_distribution",
    "enumerate_class",
    "TauBaseCatalog",
    "enumerate_tau_bases",
    "CheckResult",
    "AuditReport",
    "audit_bijections",
]


def oracle_distribution(n: int, tau) -> dict[int, int]:
    """Distribution computed entirely with the brute-force occurrence finder
    (any pattern of length >= 2).  Slow; this is the independent oracle used
    to validate the kernel path."""
    out: dict[int, int] = {}
    for rho in all_permutations(n):
        r = find_occurrences(rho, tau).count
        out[r] = out.get(r, 0) + 1
    return out



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
) -> tuple[dict[str, tuple[Permutation, str]], list[tuple[Permutation, str]], list[Permutation]]:
    """What ``kernels.audit_images`` answers, found by ``check`` (of
    ``_image_checks``) run on each host and its image in turn: the first
    host failing each check, with its image; the hosts with no occurrence
    whose image is a valid path, each with its image; the hosts with one."""
    failed: dict[str, tuple[Permutation, str]] = {}
    avoiders: list[tuple[Permutation, str]] = []
    singles: list[Permutation] = []
    for rho, path in zip(hosts, images):
        r = check(rho, path, lambda name, _: failed.setdefault(name, (rho, path)))
        if r == 0:
            avoiders.append((rho, path))
        elif r == 1:
            singles.append(rho)
    return failed, avoiders, singles


def audit_bijections(n: int, tau, *, limit: int = DEFAULT_LIMIT) -> AuditReport:
    """Sweep all of S_n and check every structural claim about the encoder
    for ``tau``: injectivity, validity and the jump sandwich condition,
    maxima mapping to peaks, the jump-count bound, jump-freeness exactly on
    avoiders, the avoider image being all of D_n, decoder round-trips, and
    the predicted occurrence triples being genuine (with exact totals for
    hosts having one or two occurrences).

    The checks that read one image (``_image_checks``) take one of three
    routes, which give the same report.  For the stock encoder
    (``bijections.psi312`` or ``psi321`` as written), the walk
    (``kernels.audit_images(n, key)``) runs them in one compiled call that
    builds each image itself and checks injectivity, so neither S_n nor
    its images become Python objects.  For an encoder put in its place, or
    where the walk answers None (the pure kernel, n > 12, a repeated or
    invalid image), the encoder runs once per permutation, Python checks
    injectivity on the set of images, and the images route
    (``kernels.audit_images(n, key, images)``) runs those checks on them in
    one compiled call.  Where that answers None too (the pure kernel,
    n > 12, an image that is not a str), ``_audit_loop`` runs them on each
    permutation in turn, the oracle both compiled routes are tested
    against.  Each route names the first permutation failing each check
    and its image, the avoiders with their images and the one-occurrence
    hosts.  The check's own Python body, run again on each first failing
    permutation, writes the counterexample, and a compiled verdict it does
    not repeat raises ``RuntimeError``.  Python also checks the avoiders
    (against the staircase map and the avoider decoder), the one-occurrence
    bases (by the brute-force oracle) and the Dyck paths, walked in
    ``paths.enumerate_paths`` order: each decodes to an avoider whose image
    is that path (the walk's image, or the encoder's, run again).
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

    check = _image_checks(key)
    got = kernels.audit_images(n, key) if encode is bijections._STOCK_ENCODERS[key] else None
    walked = got is not None
    if not walked:
        hosts = list(all_permutations(n))
        images = list(map(encode, hosts))
        if len(set(images)) < len(images):
            first: dict[str, Permutation] = {}
            for rho, path in zip(hosts, images):
                if path in first:
                    fail("injective", f"{first[path]} and {rho} share image {path}")
                    break
                first[path] = rho
        got = kernels.audit_images(n, key, images)
        if got is None:
            got = _audit_loop(hosts, images, check)
    failed, avoiders, singles = got
    # the check's body, run again on the first failing host, writes the text
    for name, (rho, path) in failed.items():
        rho = Permutation._of(rho)
        texts: dict[str, str] = {}
        check(rho, path, texts.setdefault)
        if name not in texts:
            raise RuntimeError(f"the compiled audit fails {name} on {rho}, its Python body does not")
        fail(name, texts[name])

    # each Dyck path is decoded once, in enumeration order, for the avoider
    # round trip and for decode-covers-dyck; an avoider image outside D_n
    # is decoded on its own
    decoded = {path: decode(path) for path in paths.enumerate_paths(n, 0)}
    for rho, path in avoiders:
        rho = Permutation._of(rho)
        if path != bijections.psi_avoiding(rho):
            fail("avoider-staircase-agreement", f"{rho}")
        back = decoded[path] if path in decoded else decode(path)
        if back != rho:
            fail("decode-roundtrip", f"{rho} -> {path} -> {back}")
    # the brute-force oracle runs only where the whole occurrence set is read
    for rho in singles:
        rho = Permutation._of(rho)
        if perms._base_of(rho, find_occurrences(rho, tau)) != tau:
            fail("single-occurrence-base", f"{rho}")

    cn = perms.catalan_number(n)
    encoded = dict(avoiders)
    avoider_images = set(encoded.values())
    if len(avoiders) != cn or len(avoider_images) != cn:
        fail("avoider-count", f"{len(avoiders)} avoiders, {len(avoider_images)} images, C_n={cn}")
    if avoider_images != decoded.keys():
        fail("avoider-image-is-all-dyck", f"missing {sorted(decoded.keys() - avoider_images)[:3]}")

    # decoding every Dyck path yields an avoider that encodes back to it; the
    # walk names every avoider of S_n with the stock encoder's image
    for path, rho in decoded.items():
        if walked:
            image = encoded.get(rho)
        else:
            image = encode(rho) if count_occurrences_fast(rho, tau) == 0 else None
        if image != path:
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
