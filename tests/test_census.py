"""Distributions, caching, parallel determinism, base catalogs, audits."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permdyck import _purecount, audit, bijections, census, kernels, paths, perms, recorded, series
from permdyck.census import CacheError, ResourceGuardError
from permdyck.perms import (
    PATTERN_312,
    PATTERN_321,
    Permutation,
    rotate_quarter,
)

# catalogs named in the two-occurrence case analysis; discovered here by search
BASES_312_R2 = {
    (3, 4, 1, 2),
    (4, 1, 3, 2),
    (4, 2, 1, 3),
    (4, 3, 1, 2),
    (3, 1, 5, 2, 4),
    (3, 1, 2, 6, 4, 5),
    (3, 1, 6, 4, 5, 2),
    (4, 2, 3, 6, 1, 5),
}
BASES_321_R2 = {
    (3, 4, 2, 1),
    (4, 2, 3, 1),
    (4, 3, 1, 2),
    (3, 2, 5, 4, 1),
    (5, 2, 1, 4, 3),
    (3, 2, 1, 6, 5, 4),
    (3, 2, 6, 1, 5, 4),
    (4, 2, 1, 6, 5, 3),
    (4, 2, 6, 1, 5, 3),
}


class TestDistribution:
    def test_n5_values(self):
        t312 = census.brute_distribution(5, "312")
        assert (t312.count(0), t312.count(1), t312.count(2)) == (42, 21, 23)
        t321 = census.brute_distribution(5, "321")
        assert (t321.count(0), t321.count(1), t321.count(2)) == (42, 27, 24)

    def test_row_sums(self):
        for n in range(8):
            for tau in ("312", "321"):
                assert census.brute_distribution(n, tau).total == math.factorial(n)

    def test_n2_trivial(self):
        for tau in ("312", "321"):
            t = census.brute_distribution(2, tau)
            assert t.as_dict() == {0: 2}

    def test_counts_zero_beyond_max(self):
        t = census.brute_distribution(5, "312")
        assert t.count(11) == 0  # binom(5,3) = 10 is the maximum

    def test_avoiders_are_catalan(self):
        for n in range(9):
            cn = math.comb(2 * n, n) // (n + 1)
            assert census.brute_distribution(n, "312").count(0) == cn
            assert census.brute_distribution(n, "321").count(0) == cn

    def test_matches_oracle(self):
        for n in range(6):
            for tau in ("312", "321"):
                assert (
                    census.brute_distribution(n, tau).as_dict()
                    == census.oracle_distribution(n, tau)
                )

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            census.brute_distribution(7, "312", limit=5)
        with pytest.raises(ValueError):
            census.brute_distribution(-1, "312")

    @pytest.mark.parametrize("threads", [1, 2, 4, 64, 1024])
    def test_shard_count(self, threads):
        # computed, never swept: a sweep of many small shards is slow
        for n in range(13):
            prefixes = census._shard_prefixes(n, threads)
            q = len(prefixes[0])
            assert prefixes == list(itertools.permutations(range(1, n + 1), q))
            if threads == 1:
                assert prefixes == [()]
                continue
            assert q == max(0, n - 1) or len(prefixes) >= 4 * threads
            assert q == 0 or math.perm(n, q - 1) < 4 * threads

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        import concurrent.futures

        pools = []
        real = concurrent.futures.ThreadPoolExecutor

        def recording(max_workers):
            pools.append(max_workers)
            return real(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        expect = kernels.histogram_pair(6)
        # up to the direct-sweep size no pool starts, whatever the CPU count
        monkeypatch.setattr(census.os, "cpu_count", lambda: 64)
        assert census._DIRECT_MAX_N >= 6
        assert census._sweep(6) == expect and pools == []
        # a smaller direct-sweep size sends small sweeps to the pool
        monkeypatch.setattr(census, "_DIRECT_MAX_N", 2)
        monkeypatch.setattr(census.os, "cpu_count", lambda: 1)
        assert census._sweep(6) == expect and pools == []
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        assert census._sweep(6) == expect and pools == [2]
        assert len(census._shard_prefixes(6, 2)) == 30
        monkeypatch.setattr(census.os, "cpu_count", lambda: 64)
        assert census._sweep(3) == kernels.histogram_pair(3) and pools == [2, 6]
        assert len(census._shard_prefixes(3, 64)) == 6
        assert census._sweep(2) == kernels.histogram_pair(2) and pools == [2, 6]

    def test_worker_determinism(self, monkeypatch):
        # one CPU sweeps S_n in one call; two and four shard it by one to three
        # positions, here also below the direct-sweep size
        monkeypatch.setattr(census, "_DIRECT_MAX_N", -1)
        tables = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(census.os, "cpu_count", lambda: cpus)
            for n in range(9):
                assert census._sweep(n) == kernels.histogram_pair(n)
            monkeypatch.setattr(census, "_memo", {})
            tables.append([census.brute_distribution(n, "312").counts for n in range(9)])
        assert tables[0] == tables[1] == tables[2]


class TestRotationSymmetry:
    def test_orbit_distributions_match_oracle(self):
        # rotating the pattern leaves the whole distribution unchanged
        for base in (PATTERN_312, PATTERN_321):
            taus = [base]
            for _ in range(3):
                taus.append(rotate_quarter(taus[-1]))
            for n in range(2, 6):
                dists = [census.oracle_distribution(n, tau) for tau in taus]
                assert all(d == dists[0] for d in dists)

    def test_orbit_distributions_match_n7(self):
        from permdyck.perms import all_permutations, count_occurrences_fast

        for base in (PATTERN_312, PATTERN_321):
            taus = [base]
            for _ in range(3):
                taus.append(rotate_quarter(taus[-1]))
            for n in (6, 7):
                dists = []
                for tau in taus:
                    hist: dict[int, int] = {}
                    for rho in all_permutations(n):
                        r = count_occurrences_fast(rho, tau)
                        hist[r] = hist.get(r, 0) + 1
                    dists.append(hist)
                assert all(d == dists[0] for d in dists)


class TestCache:
    def test_roundtrip(self, tmp_path):
        census._memo.pop(5, None)
        first = census.brute_distribution(5, "321", cache_dir=tmp_path)
        assert (tmp_path / "321" / "5.json").is_file()
        assert (tmp_path / "312" / "5.json").is_file()
        census._memo.pop(5, None)
        second = census.brute_distribution(5, "321", cache_dir=tmp_path)
        assert first == second

    def test_cached_equals_fresh(self, tmp_path):
        census._memo.pop(4, None)
        census.brute_distribution(4, "312", cache_dir=tmp_path)
        data = json.loads((tmp_path / "312" / "4.json").read_text())
        census._memo.pop(4, None)
        fresh = census.brute_distribution(4, "312")
        assert {int(k): int(v) for k, v in data["counts"].items()} == fresh.as_dict()

    def test_checksum_refused(self, tmp_path):
        census._memo.pop(5, None)
        census.brute_distribution(5, "312", cache_dir=tmp_path)
        path = tmp_path / "312" / "5.json"
        data = json.loads(path.read_text())
        data["counts"]["0"] = "41"
        path.write_text(json.dumps(data))
        census._memo.pop(5, None)
        with pytest.raises(CacheError):
            census.brute_distribution(5, "312", cache_dir=tmp_path)
        census._memo.pop(5, None)

    def test_stale_version_recomputed(self, tmp_path):
        census._memo.pop(5, None)
        census.brute_distribution(5, "312", cache_dir=tmp_path)
        path = tmp_path / "312" / "5.json"
        data = json.loads(path.read_text())
        data["version"] = "ancient"
        path.write_text(json.dumps(data))
        census._memo.pop(5, None)
        t = census.brute_distribution(5, "312", cache_dir=tmp_path)
        assert t.count(0) == 42

    def test_memoised_table_is_written(self, tmp_path, monkeypatch):
        # the cache is read before the memo, so a memoised n still fills it
        monkeypatch.setattr(census, "_memo", {})
        first = census.brute_distribution(4, "312")
        assert census.brute_distribution(4, "312", cache_dir=tmp_path) == first
        assert (tmp_path / "312" / "4.json").is_file()
        assert (tmp_path / "321" / "4.json").is_file()

    def test_environment_not_read(self, tmp_path, monkeypatch):
        # only the CLI's --cache-dir default reads PERMDYCK_CACHE
        monkeypatch.setenv("PERMDYCK_CACHE", str(tmp_path))
        monkeypatch.setattr(census, "_memo", {})
        assert census.brute_distribution(4, "312").count(0) == 14
        assert list(tmp_path.iterdir()) == []

    def test_empty_cache_dir_means_no_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(census, "_memo", {})
        assert census.brute_distribution(4, "312", cache_dir="").count(0) == 14
        assert list(tmp_path.iterdir()) == []


class TestEnumerateClass:
    def test_minimal_321(self):
        got = list(census.enumerate_class(3, "321", 1))
        assert got == [Permutation((3, 2, 1))]

    def test_known_values_n4(self):
        assert len(list(census.enumerate_class(4, "321", 2))) == 3
        assert len(list(census.enumerate_class(4, "312", 2))) == 4

    def test_stream_matches_table(self):
        table = census.brute_distribution(5, "312")
        for r in range(4):
            assert len(list(census.enumerate_class(5, "312", r))) == table.count(r)

    def test_lexicographic(self):
        got = list(census.enumerate_class(4, "312", 1))
        assert got == sorted(got)


class TestTauBases:
    def test_r1_is_pattern_itself(self):
        assert [tuple(b) for b in census.enumerate_tau_bases("312", 1).bases] == [(3, 1, 2)]
        assert [tuple(b) for b in census.enumerate_tau_bases("321", 1).bases] == [(3, 2, 1)]

    def test_r2_catalogs_exact(self):
        got312 = {tuple(b) for b in census.enumerate_tau_bases("312", 2).bases}
        assert got312 == BASES_312_R2
        got321 = {tuple(b) for b in census.enumerate_tau_bases("321", 2).bases}
        assert got321 == BASES_321_R2

    def test_sorted_by_length_then_lex(self):
        bases = census.enumerate_tau_bases("321", 2).bases
        keys = [(len(b), tuple(b)) for b in bases]
        assert keys == sorted(keys)

    def test_length_bound(self):
        for r in (1, 2):
            for tau in ("312", "321"):
                assert all(len(b) <= 3 * r for b in census.enumerate_tau_bases(tau, r).bases)

    def test_r_guard(self):
        with pytest.raises(ValueError):
            census.enumerate_tau_bases("312", 3)


def _drop_last(path, step):
    i = path.rfind(step)
    return path[:i] + path[i + 1 :]


@pytest.fixture
def loop_route(monkeypatch):
    """Pin ``audit_bijections`` to its loop over S_n, the route of the pure
    kernel, by the swap ``on_each_backend`` makes of ``kernels``' names: the
    pure ``audit_images`` answers None with and without images, so neither
    the walk nor the images route runs.  For tests that patch a Python
    helper the compiled audit does not call."""
    monkeypatch.setattr(kernels, "audit_images", _purecount.audit_images)


def _routes(fastcount):
    """``kernels.audit_images`` for each route of ``audit_bijections``: the
    compiled walk, the compiled images route alone (None without images)
    and the loop (None with or without)."""
    return {
        "walk": fastcount.audit_images,
        "images": lambda n, key, images=None: None if images is None else fastcount.audit_images(n, key, images),
        "loop": _purecount.audit_images,
    }


class TestAudit:
    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_audit_passes_n6(self, tau):
        report = census.audit_bijections(6, tau)
        assert report.passed, [str(c) for c in report.checks if not c.passed]

    def test_audit_small_n(self):
        for n in (0, 1, 2):
            for tau in ("312", "321"):
                assert census.audit_bijections(n, tau).passed

    def test_invalid_image_is_reported(self, monkeypatch):
        # an encoder that returns an invalid path fails the audit; it must not raise
        original = bijections.psi312
        monkeypatch.setattr(bijections, "psi312", lambda rho: original(rho) + "U")
        report = census.audit_bijections(3, "312")
        checks = {c.name: c for c in report.checks}
        assert not report.passed
        assert not checks["valid-image"].passed
        assert checks["valid-image"].counterexample == "Permutation(1, 2, 3) -> UDUDUDU"


class TestAuditRoute:
    """The audit reads the encoder's image once and calls private helpers;
    these tests tie its verdicts to those helpers."""

    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_encoder_runs_once_per_permutation_and_dyck_path(self, monkeypatch, tau):
        name = f"psi{tau}"
        original = getattr(bijections, name)
        calls = []

        def counted(rho):
            calls.append(rho)
            return original(rho)

        monkeypatch.setattr(bijections, name, counted)
        assert census.audit_bijections(6, tau).passed
        assert len(calls) == math.factorial(6) + series.catalan_number(6)

    @pytest.mark.usefixtures("loop_route")
    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_prediction_runs_once_per_compared_permutation(self, monkeypatch, tau):
        # the audit compares a prediction with the oracle when the image has
        # one jump, or when the permutation has one or two occurrences
        encode = bijections.psi312 if tau == "312" else bijections.psi321
        compared = []
        for rho in perms.all_permutations(6):
            spans = paths.path_info(encode(rho)).spans
            r = perms.count_occurrences_fast(rho, tau)
            if spans and (len(spans) == 1 or r in (1, 2)):
                compared.append(rho)
        original = bijections._predict
        calls = []

        def counted(rho, key, info):
            calls.append(rho)
            return original(rho, key, info)

        monkeypatch.setattr(bijections, "_predict", counted)
        assert census.audit_bijections(6, tau).passed
        assert calls == compared

    @pytest.mark.usefixtures("loop_route")
    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_one_parse_per_permutation_and_one_per_dyck_path(self, monkeypatch, tau):
        # each image is parsed once; each Dyck path once by the avoider
        # decoder, whose result both the avoider round trip and the
        # decode-covers-dyck sweep read
        original = paths._scan
        calls = []

        def counted(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(paths, "_scan", counted)
        assert census.audit_bijections(6, tau).passed
        assert len(calls) == math.factorial(6) + series.catalan_number(6)

    # the failing checks and counterexamples of ``audit_bijections(5, key)``
    # with an encoder whose image has one down-step too many ("UD" appended:
    # its last down-step has no room, n - i < h) or one too few (the last
    # down-step dropped; or the last up-step and the last down-step, a valid
    # path outside psi312's image), in report order; a text given per
    # pattern (a dict) belongs to the checks of those patterns only, and
    # DYCK stands for the counterexample of "decode-covers-dyck", the first
    # Dyck path in enumeration order
    _ID5 = "Permutation(1, 2, 3, 4, 5)"
    _MISSING = "missing ['UDUDUDUDUD', 'UDUDUDUUDD', 'UDUDUUDDUD']"
    _MUTATED = {
        "append UD": (
            lambda path: path + "UD",
            [
                ("valid-image", f"{_ID5} -> UDUDUDUDUDUD"),
                ("down-step-heights", f"{_ID5} -> UDUDUDUDUDUD"),
                ("descents-available", f"{_ID5} -> UDUDUDUDUDUD"),
                ("avoider-staircase-agreement", _ID5),
                ("decode-roundtrip", f"{_ID5} -> UDUDUDUDUDUD -> Permutation(1, 2, 3, 4, 5, 6)"),
                ("decode-covers-dyck", "DYCK"),
                ("avoider-image-is-all-dyck", _MISSING),
                ("decode-psi312-roundtrip", {"312": f"{_ID5} -> UDUDUDUDUDUD"}),
            ],
        ),
        "drop last down-step": (
            lambda path: _drop_last(path, "D"),
            [
                ("valid-image", f"{_ID5} -> UDUDUDUDU"),
                ("decode-covers-dyck", "DYCK"),
                ("avoider-count", "0 avoiders, 0 images, C_n=42"),
                ("avoider-image-is-all-dyck", _MISSING),
            ],
        ),
        "drop last up-step and last down-step": (
            lambda path: _drop_last(_drop_last(path, "U"), "D"),
            [
                ("injective", f"{_ID5} and Permutation(1, 2, 3, 5, 4) share image UDUDUDUD"),
                ("valid-image", f"{_ID5} -> UDUDUDUD"),
                ("down-step-heights", f"{_ID5} -> UDUDUDUD"),
                ("maxima-are-peaks", f"{_ID5} -> UDUDUDUD"),
                (
                    "ups-after-jump",
                    {
                        "312": "Permutation(1, 2, 5, 3, 4) -> UDUDUUUDJD",
                        "321": "Permutation(1, 2, 5, 4, 3) -> UDUDUUUDJD",
                    },
                ),
                ("avoider-staircase-agreement", _ID5),
                ("decode-roundtrip", f"{_ID5} -> UDUDUDUD -> Permutation(1, 2, 3, 4)"),
                ("decode-covers-dyck", "DYCK"),
                ("avoider-count", "42 avoiders, 14 images, C_n=42"),
                ("avoider-image-is-all-dyck", _MISSING),
                ("decode-psi312-roundtrip", {"312": f"{_ID5} -> UDUDUDUD"}),
                ("single-occurrence-shape", {"312": "Permutation(1, 5, 3, 4, 2) -> UDUUUUDJDD, r=1"}),
                (
                    "predicted-subset",
                    {
                        "312": "Permutation(1, 5, 3, 4, 2): [(2, 4, 4)]",
                        "321": "Permutation(1, 5, 3, 2, 4): [(2, 4, 4)]",
                    },
                ),
                (
                    "predicted-total",
                    {
                        "312": "Permutation(1, 5, 3, 4, 2): predicted 2, r=1",
                        "321": "Permutation(1, 5, 3, 2, 4): predicted 2, r=1",
                    },
                ),
            ],
        ),
    }

    @staticmethod
    def _mutate(monkeypatch, mutation):
        mutate = TestAuditRoute._MUTATED[mutation][0]
        for name in ("psi312", "psi321"):
            original = getattr(bijections, name)
            monkeypatch.setattr(bijections, name, lambda rho, original=original: mutate(original(rho)))

    @pytest.mark.parametrize("tau", ["312", "321"])
    @pytest.mark.parametrize("mutation", _MUTATED)
    def test_mutated_encoder_fails_as_before(self, fastcount, monkeypatch, tau, mutation):
        self._mutate(monkeypatch, mutation)
        decode = bijections.decode_312_avoiding if tau == "312" else bijections.decode_321_avoiding
        dyck = next(paths.enumerate_paths(5, 0))
        want = []
        for name, text in self._MUTATED[mutation][1]:
            if isinstance(text, dict):
                if tau not in text:
                    continue
                text = text[tau]
            want.append((name, f"{dyck} -> {decode(dyck)}" if text == "DYCK" else text))
        failed = []
        for impl in (fastcount, _purecount):  # the compiled audit, then the loop
            monkeypatch.setattr(kernels, "audit_images", impl.audit_images)
            report = census.audit_bijections(5, tau)
            failed.append([(c.name, c.counterexample) for c in report.checks if not c.passed])
        assert failed == [want, want]

    def test_mutated_report_does_not_depend_on_the_hash_seed(self):
        # the Dyck paths are walked in enumeration order, not in set order
        code = (
            "from permdyck import bijections, census; psi = bijections.psi312; "
            "bijections.psi312 = lambda rho: psi(rho) + 'UD'; "
            "print(repr(census.audit_bijections(5, '312')))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        reports = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert "decode-covers-dyck', passed=False" in reports[0]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("tau", ["312", "321"])
    @pytest.mark.parametrize("n", range(9))
    def test_routes_give_one_report(self, fastcount, monkeypatch, n, tau):
        # the walk, which builds the stock encoder's images itself, the
        # compiled images route and the loop, each on the encoder's images;
        # neither compiled route hands an input over
        before = fastcount.hand_overs()
        reports = []
        for impl in _routes(fastcount).values():
            monkeypatch.setattr(kernels, "audit_images", impl)
            reports.append(repr(census.audit_bijections(n, tau)))
        assert reports[0] == reports[1] == reports[2]
        assert fastcount.hand_overs() == before

    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_stock_audit_builds_no_permutation_or_image(self, fastcount, monkeypatch, tau):
        # the walk neither enumerates S_n in Python nor runs the encoder
        def refused(*args):
            raise AssertionError("S_n or an image was built in Python")

        monkeypatch.setattr(kernels, "audit_images", fastcount.audit_images)
        monkeypatch.setattr(audit, "all_permutations", refused)
        monkeypatch.setattr(kernels, "encode_path", refused)
        before = fastcount.hand_overs()
        assert census.audit_bijections(7, tau).passed
        assert fastcount.hand_overs() == before

    @pytest.mark.usefixtures("loop_route")
    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_loop_route_fixture_runs_the_loop(self, monkeypatch, tau):
        original = audit._audit_loop
        calls = []

        def counted(hosts, images, check):
            calls.append(len(hosts))
            return original(hosts, images, check)

        monkeypatch.setattr(audit, "_audit_loop", counted)
        assert census.audit_bijections(5, tau).passed
        assert calls == [math.factorial(5)]

    def test_compiled_verdict_the_loop_does_not_repeat_raises(self, monkeypatch):
        # the counterexample comes from the check's Python body; a failure
        # that body does not find there is a disagreement, not a report
        answer = ({"jump-sandwich": ((1, 2, 3, 4), "UDUDUDUD")}, [], [])
        monkeypatch.setattr(kernels, "audit_images", lambda n, key, images=None: answer)
        with pytest.raises(RuntimeError, match="jump-sandwich"):
            census.audit_bijections(4, "312")

    @pytest.mark.usefixtures("loop_route")
    def test_wrong_psi312_decoding_fails_roundtrip(self, monkeypatch):
        monkeypatch.setattr(bijections, "decode_psi312", lambda path: Permutation((1,)))
        failed = [c.name for c in census.audit_bijections(5, "312").checks if not c.passed]
        assert failed == ["decode-psi312-roundtrip"]

    @pytest.mark.usefixtures("loop_route")
    def test_wrong_single_occurrence_shape_fails_its_check(self, monkeypatch):
        monkeypatch.setattr(bijections, "_single_occurrence_shape_312", lambda info: False)
        failed = [c.name for c in census.audit_bijections(5, "312").checks if not c.passed]
        assert failed == ["single-occurrence-shape"]

    @pytest.mark.usefixtures("loop_route")
    def test_dropped_prediction_fails_total(self, monkeypatch):
        original = bijections._predict
        monkeypatch.setattr(bijections, "_predict", lambda rho, key, info: original(rho, key, info)[1:])
        checks = {c.name: c for c in census.audit_bijections(5, "312").checks}
        assert not checks["predicted-total"].passed
        assert checks["predicted-subset"].passed

    @staticmethod
    def _appending(monkeypatch, extra):
        """Make ``_predict`` append ``extra(rho, tau)`` (when not None) to the
        prediction of each host with three or more occurrences, so that
        ``predicted-total`` still holds; returns the (rho, prediction)
        pairs it gave, in call order."""
        original = bijections._predict
        given = []

        def appended(rho, key, info):
            out = original(rho, key, info)
            if perms.count_occurrences_fast(rho, key) >= 3:
                triple = extra(rho, key)
                out += (triple,) if triple is not None else ()
            given.append((rho, out))
            return out

        monkeypatch.setattr(bijections, "_predict", appended)
        return given

    @staticmethod
    def _non_occurrences(rho, tau):
        occ = set(perms.find_occurrences(rho, tau).positions)
        return [t for t in itertools.combinations(range(1, len(rho) + 1), 3) if t not in occ]

    def _first_non_occurrence(self, rho, tau):
        return next(iter(self._non_occurrences(rho, tau)), None)

    def _in_pattern_order(self, rho, tau):
        # the positions of a non-occurrence, reordered so that their values
        # read as the pattern: only the position check can refuse them
        triple = self._first_non_occurrence(rho, tau)
        if triple is None:
            return None
        by_value = sorted(triple, key=lambda i: rho[i - 1])
        return tuple(by_value[t - 1] for t in perms.as_pattern(tau))

    @pytest.mark.usefixtures("loop_route")
    @pytest.mark.parametrize("tau", ["312", "321"])
    @pytest.mark.parametrize("kind", ["non-occurrence", "positions-in-pattern-order"])
    def test_wrong_prediction_fails_subset_only(self, monkeypatch, tau, kind):
        extra = self._first_non_occurrence if kind == "non-occurrence" else self._in_pattern_order
        given = self._appending(monkeypatch, extra)
        report = census.audit_bijections(6, tau)
        assert [c.name for c in report.checks if not c.passed] == ["predicted-subset"]
        # the counterexample the audit gave when it compared with the full
        # occurrence set: the first host's set difference
        rho, diff = next(
            (rho, diff)
            for rho, predicted in given
            if (diff := sorted(set(predicted) - set(perms.find_occurrences(rho, tau).positions)))
        )
        checks = {c.name: c for c in report.checks}
        assert checks["predicted-subset"].counterexample == f"{rho}: {diff}"
        if kind == "positions-in-pattern-order":
            # the values pass the oracle's test; only the positions are wrong
            matches = perms._matcher(perms.as_pattern(tau))
            assert all(list(t) != sorted(t) and matches(tuple(rho[i - 1] for i in t)) for t in diff)

    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_predictions_build_no_analysis_records(self, monkeypatch, tau):
        # ``_predict`` unions the triples of the per-jump pieces; only
        # ``analyze_jumps`` builds records from them
        def refused(*args, **kwargs):
            raise AssertionError("a record was built")

        for name in ("JumpAnalysis", "JumpContext", "OccurrencePrediction", "MaximumBeforeJump"):
            monkeypatch.setattr(bijections, name, refused)
        assert census.audit_bijections(6, tau).passed

    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_oracle_runs_once_per_single_occurrence_host(self, monkeypatch, tau):
        original = audit.find_occurrences
        calls = []

        def counted(rho, pattern):
            calls.append(rho)
            return original(rho, pattern)

        monkeypatch.setattr(audit, "find_occurrences", counted)
        assert census.audit_bijections(6, tau).passed
        assert calls == [rho for rho in perms.all_permutations(6) if perms.count_occurrences_fast(rho, tau) == 1]

    def test_wrong_base_fails_single_occurrence_base(self, monkeypatch):
        # ``tau_base`` derives its result through ``_base_of``; so does the audit
        monkeypatch.setattr(perms, "_base_of", lambda rho, occ: Permutation((1, 2, 3)))
        assert perms.tau_base(Permutation((3, 1, 2)), "312") == (1, 2, 3)
        checks = {c.name: c for c in census.audit_bijections(4, "321").checks}
        assert not checks["single-occurrence-base"].passed
        assert checks["single-occurrence-base"].counterexample == "Permutation(1, 4, 3, 2)"


class TestMovedNames:
    """The audit and the oracle sweeps live in ``permdyck.audit``; ``census``
    keeps each of their public names, as the same object."""

    def test_every_name_of_all_resolves(self):
        assert set(audit.__all__) <= set(census.__all__)
        for name in census.__all__:
            value = getattr(census, name)
            if name in audit.__all__:
                assert value is getattr(audit, name), name
            else:
                assert getattr(value, "__module__", "permdyck.census") == "permdyck.census", name

    def test_dir_lists_the_moved_names(self):
        assert set(census.__all__) <= set(dir(census))

    def test_from_import(self):
        from permdyck.census import AuditReport, audit_bijections

        assert audit_bijections is audit.audit_bijections
        assert AuditReport is audit.AuditReport

    def test_private_names_stay_in_their_home(self):
        with pytest.raises(AttributeError, match="_audit_loop"):
            census._audit_loop


class TestVerification:
    def test_formulas(self):
        report = census.verify_formulas(7)
        assert report.passed and report.first_failure() is None
        assert len(report.rows) == 8 * 2 * 3

    def test_conjectures(self):
        report = census.verify_conjectures(7)
        assert report.passed
        assert {row.r for row in report.rows} == {3, 4}

    def test_conjectures_follow_the_conjectural_set(self, monkeypatch):
        monkeypatch.setattr(recorded, "CONJECTURAL", recorded.CONJECTURAL | {("321", 2)})
        report = census.verify_conjectures(7)
        assert report.passed
        assert [(row.pattern, row.r) for row in report.rows[::8]] == [
            ("321", 2),
            ("321", 3),
            ("321", 4),
        ]
        assert [row.brute for row in report.rows[:8]] == [0, 0, 0, 0, 3, 24, 133, 635]


class TestBoundedCensus:
    """The bounded census against the brute sweep, the occurrence oracle and
    the closed forms and generating functions; never against itself alone."""

    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_matches_brute_sweep_n9(self, tau):
        tables = [census.brute_distribution(n, tau) for n in range(10)]
        for r_max in range(5):
            got = census.bounded_distributions(9, tau, r_max)
            assert len(got) == 10
            for n, table in enumerate(tables):
                assert got[n] == tuple(table.count(r) for r in range(r_max + 1)), (n, r_max)

    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_matches_oracle_n6(self, tau):
        got = census.bounded_distributions(6, tau, 4)
        for n in range(7):
            oracle = census.oracle_distribution(n, tau)
            assert got[n] == tuple(oracle.get(r, 0) for r in range(5)), n

    def test_matches_closed_forms_and_gfs_n14(self):
        for tau in ("312", "321"):
            got = census.bounded_distributions(14, tau, 2)
            for n in range(15):
                assert got[n] == tuple(series.count_closed_form(tau, r, n) for r in range(3)), (tau, n)
        got = census.bounded_distributions(14, "321", 4)
        for r in (3, 4):
            g = series.gf("321", r, 28)
            assert [got[n][r] for n in range(15)] == [int(g.x_coeff(n)) for n in range(15)], r

    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_one_pass_equals_separate_runs(self, tau):
        one_pass = census.bounded_distributions(11, tau, 3)
        for n in range(12):
            assert census.bounded_distributions(n, tau, 3) == one_pass[: n + 1], n

    @pytest.mark.parametrize("tau", ["312", "321"])
    def test_state_entries_are_capped(self, tau):
        r_max = 2
        base = r_max + 2
        for k, layer in enumerate(_purecount.census_layers(12, tau, r_max, None)):
            for state in layer:
                assert len(state) == 12 - k
                assert all(b // base <= r_max + 1 and b % base <= r_max for b in state), (k, state)
                assert sum(b % base for b in state) <= r_max

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            census.bounded_distributions(-1, "321", 2)
        with pytest.raises(ValueError):
            census.bounded_distributions(5, "321", -1)
        with pytest.raises(ValueError):
            census.bounded_distributions(5, "321", 15)
        with pytest.raises(ValueError):
            census.bounded_distributions(5, "123", 2)

    def test_state_bound(self, monkeypatch, capsys):
        from permdyck.cli import EXIT_GUARD, main

        expect = census.bounded_distributions(8, "321", 4)
        monkeypatch.setattr(census, "MAX_STATES", 5)
        with pytest.raises(ResourceGuardError, match="more than 5 states"):
            census.bounded_distributions(8, "321", 4)
        assert census.bounded_distributions(8, "321", 4, force=True) == expect

        assert main(["verify", "--conjectures", "--n-max", "8"]) == EXIT_GUARD == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert main(["verify", "--conjectures", "--n-max", "8", "--force"]) == 0
        assert capsys.readouterr().out.endswith("PASS\n")

    def test_verify_does_not_sweep(self, monkeypatch):
        original = kernels.histogram_pair
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(kernels, "histogram_pair", counted)
        monkeypatch.setattr(census, "_memo", {})
        monkeypatch.setattr(census.os, "cpu_count", lambda: 1)  # one unsharded sweep
        assert census.verify_formulas(7).passed
        assert census.verify_conjectures(7).passed
        assert calls == []
        census.brute_distribution(5, "321")  # the wrapper does see a sweep
        assert calls == [(5, ())]
