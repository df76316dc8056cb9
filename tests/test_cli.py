"""CLI behaviour: outputs, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permdyck
from permdyck import census, cli, kernels
from permdyck.cli import EXIT_CACHE, EXIT_PIPE, EXIT_USAGE, build_parser, main, render_svg
from permdyck.paths import PathError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "table", "--tau", "312", "--n", "5")
        assert code == 0
        assert "r=0:42" in out and "r=1:21" in out and "r=2:23" in out

    def test_range_with_conventions(self, capsys):
        code, out, _ = run(capsys, "table", "--tau", "321", "--n", "0..3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,r,count"
        assert "0,0,1" in lines and "1,0,1" in lines and "2,0,2" in lines and "3,0,5" in lines

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "table", "--tau", "321", "--n", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pattern"] == "321"
        assert doc["tables"][0]["n"] == 4
        assert doc["tables"][0]["counts"]["0"] == "14"

    def test_bad_tau_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--tau", "123x", "--n", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", ["x", "1..x", "5..3"])
    def test_bad_n_usage_error(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--tau", "312", "--n", n])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: permdyck table")
        assert "error: argument --n: " in captured.err and repr(n) in captured.err

    @pytest.mark.parametrize(
        "n, expected",
        [
            ("3", "n=3  r=0:5  r=1:1\n"),
            ("2..2", "n=2  r=0:2\n"),
            ("0..3", "n=0  r=0:1\nn=1  r=0:1\nn=2  r=0:2\nn=3  r=0:5  r=1:1\n"),
        ],
    )
    def test_n_and_ranges(self, capsys, n, expected):
        assert run(capsys, "table", "--tau", "312", "--n", n) == (0, expected, "")

    def test_resource_guard_exit(self, capsys):
        code, _, err = run(capsys, "table", "--tau", "312", "--n", "11")
        assert code == 3
        assert "limit" in err

    def test_force_lifts_guard_for_small_n(self, capsys):
        code, out, _ = run(capsys, "table", "--tau", "312", "--n", "5", "--limit", "3", "--force")
        assert code == 0

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_below_one_usage_error(self, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["table", "--tau", "312", "--n", "5", "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_workers_accepted(self):
        args = build_parser().parse_args(["verify", "--formulas", "--workers", "2"])
        assert args.workers == 2


class TestCacheDefault:
    def test_environment_names_the_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMDYCK_CACHE", str(tmp_path))
        monkeypatch.setattr(census, "_memo", {})
        code, out, _ = run(capsys, "table", "--tau", "312", "--n", "4")
        assert code == 0 and "r=0:14" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["312", "321"]

    @pytest.mark.parametrize("option", [False, True], ids=["environment", "option"])
    def test_empty_value_means_no_cache(self, capsys, tmp_path, monkeypatch, option):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PERMDYCK_CACHE", str(tmp_path / "unused") if option else "")
        monkeypatch.setattr(census, "_memo", {})
        argv = ["table", "--tau", "312", "--n", "4"] + (["--cache-dir", ""] if option else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "r=0:14" in out
        assert list(tmp_path.iterdir()) == []


class TestCorruptCache:
    def _cached(self, capsys, tmp_path):
        census._memo.pop(5, None)
        code, _, _ = run(capsys, "table", "--tau", "312", "--n", "5", "--cache-dir", str(tmp_path))
        assert code == 0
        census._memo.pop(5, None)
        return tmp_path / "312" / "5.json"

    def _assert_cache_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "table", "--tau", "312", "--n", "5", "--cache-dir", str(tmp_path))
        census._memo.pop(5, None)
        assert code == EXIT_CACHE == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "5.json" in err

    def test_truncated_file(self, capsys, tmp_path):
        path = self._cached(capsys, tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        self._assert_cache_error(capsys, tmp_path)

    def test_checksum_mismatch(self, capsys, tmp_path):
        path = self._cached(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["counts"]["0"] = "41"
        path.write_text(json.dumps(data))
        self._assert_cache_error(capsys, tmp_path)

    @pytest.mark.parametrize(
        "text", ["[]", json.dumps({"version": census.CODE_VERSION, "checksum": "x"})]
    )
    def test_wrong_shape(self, capsys, tmp_path, text):
        path = self._cached(capsys, tmp_path)
        path.write_text(text)
        self._assert_cache_error(capsys, tmp_path)

    def test_store_leaves_no_temporary_files(self, capsys, tmp_path):
        self._cached(capsys, tmp_path)
        names = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
        assert names == ["5.json", "5.json"]


class TestMapDecode:
    def test_map(self, capsys):
        assert run(capsys, "map", "4,3,5,1,2", "--tau", "321")[1].strip() == "UUUUDJJDUUUDDD"
        assert run(capsys, "map", "4,3,5,1,2", "--tau", "312")[1].strip() == "UUUUDDUDJDUD"
        assert run(capsys, "map", "1,2,3", "--tau", "312")[1].strip() == "UDUDUD"
        assert run(capsys, "map", "4,3,5,1,2", "--tau", "avoiding")[1].strip() == "UUUUDDUDDD"

    def test_decode(self, capsys):
        assert run(capsys, "decode", "UUDD", "--mode", "321avoid")[1].strip() == "2,1"
        assert run(capsys, "decode", "UUDD", "--mode", "312avoid")[1].strip() == "2,1"
        assert (
            run(capsys, "decode", "UUUUDDUDJDUD", "--mode", "psi312")[1].strip() == "4,3,5,1,2"
        )

    def test_bad_inputs(self, capsys):
        code, _, err = run(capsys, "map", "1,2,2", "--tau", "312")
        assert code == 2 and "error" in err
        code, _, err = run(capsys, "decode", "UUXD", "--mode", "psi312")
        assert code == 2

    def test_roundtrip(self, capsys):
        _, path, _ = run(capsys, "map", "3,1,4,2,5", "--tau", "312")
        _, back, _ = run(capsys, "decode", path.strip(), "--mode", "psi312")
        assert back.strip() == "3,1,4,2,5"

    def test_json_modes(self, capsys):
        _, out, _ = run(capsys, "map", "4,3,5,1,2", "--tau", "321", "--format", "json")
        assert json.loads(out) == {
            "perm": "4,3,5,1,2",
            "tau": "321",
            "path": "UUUUDJJDUUUDDD",
        }
        _, out, _ = run(capsys, "decode", "UUDD", "--mode", "312avoid", "--format", "json")
        assert json.loads(out)["perm"] == "2,1"
        _, out, _ = run(capsys, "render", "UUDD", "--format", "json")
        doc = json.loads(out)
        assert doc["heights"] == [1, 0] and "/" in doc["ascii"]


class TestBases:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "bases", "--tau", "312", "--r", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert "4,1,3,2" in lines and "4,2,3,6,1,5" in lines
        assert len(lines) == 8

    def test_r1(self, capsys):
        code, out, _ = run(capsys, "bases", "--tau", "321", "--r", "1")
        assert code == 0 and out.strip() == "3,2,1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "bases", "--tau", "321", "--r", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["r"] == 2 and len(doc["bases"]) == 9


class TestVerify:
    def test_formulas(self, capsys):
        code, out, _ = run(capsys, "verify", "--formulas", "--n-max", "6")
        assert code == 0 and out.strip().endswith("PASS")

    def test_conjectures_labeled(self, capsys):
        code, out, _ = run(capsys, "verify", "--conjectures", "--n-max", "6")
        assert code == 0
        assert "CONJECTURE" in out

    def test_assemblies(self, capsys):
        code, out, _ = run(capsys, "verify", "--assemblies", "--order", "24")
        assert code == 0 and "PASS" in out

    def test_general_form(self, capsys):
        code, out, _ = run(capsys, "verify", "--general-form", "--order", "60")
        assert code == 0
        assert "deg P" in out

    def test_general_form_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--general-form", "--order", "80")
        assert code == 0
        assert out.splitlines() == [
            "tau=312 r=1: denominator sqrt(1-4x)^1, deg P = 1, deg Q = 1",
            "tau=312 r=2: denominator sqrt(1-4x)^3, deg P = 4, deg Q = 3",
            "tau=321 r=0: denominator 2 x^1, deg P = 0, deg Q = 0",
            "tau=321 r=1: denominator 2 x^3, deg P = 3, deg Q = 2",
            "tau=321 r=2: denominator 2 x^5, deg P = 5, deg Q = 5",
            "CONJECTURE tau=321 r=3: denominator 2 x^7, deg P = 8, deg Q = 7",
            "CONJECTURE tau=321 r=4: denominator 2 x^9, deg P = 10, deg Q = 10",
            "PASS",
        ]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--assemblies", "--order", "20", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--formulas", "--n-max", "-1"],
            ["verify", "--conjectures", "--n-max", "-5"],
            ["coeffs", "--tau", "321", "--r", "1", "--n-max", "-1"],
            ["verify", "--formulas", "--n-max", "nine"],
        ],
    )
    def test_negative_n_max_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--n-max" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["verify", "--assemblies", "--order", "-3"], "--order"),
            (["verify", "--general-form", "--order", "-1"], "--order"),
            (["table", "--tau", "312", "--n", "3", "--limit", "-1"], "--limit"),
        ],
    )
    def test_negative_order_and_limit_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert option in capsys.readouterr().err

    def test_n_max_past_sweep_limit_needs_no_force(self, capsys):
        code, out, err = run(capsys, "verify", "--formulas", "--n-max", "11")
        assert code == 0 and err == ""
        assert "tau=321 r=2: ok for n <= 11" in out

    def test_corrupt_cache_does_not_affect_verify(self, capsys, tmp_path):
        for key in ("312", "321"):
            (tmp_path / key).mkdir()
            (tmp_path / key / "5.json").write_text("{not json")
        census._memo.pop(5, None)
        code, out, _ = run(capsys, "verify", "--formulas", "--n-max", "5", "--cache-dir", str(tmp_path))
        assert code == 0 and out.strip().endswith("PASS")

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        from permdyck import census

        failing = census.VerificationReport(
            kind="formulas",
            rows=(census.VerificationRow(pattern="312", r=1, n=4, brute=5, predicted=6),),
        )
        monkeypatch.setattr(census, "verify_formulas", lambda *a, **k: failing)
        code, out, _ = run(capsys, "verify", "--formulas", "--n-max", "4")
        assert code == 1
        assert "FAIL at n=4" in out


class TestRenderAndCoeffs:
    def test_render_mountain(self, capsys):
        code, out, _ = run(capsys, "render", "UUDD")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == " /\\"
        assert lines[1] == "/  \\"
        assert "down-step heights: 1,0" in out

    def test_render_svg(self, capsys, tmp_path):
        svg = tmp_path / "p.svg"
        code, _, _ = run(capsys, "render", "UUUUDJJDUUUDDD", "--svg", str(svg))
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_render_svg_file_and_stdout(self, capsys, tmp_path):
        svg = tmp_path / "p.svg"
        plain = run(capsys, "render", "UUDDUD")
        assert plain == (0, " /\\\n/  \\/\\\ndown-step heights: 1,0,0\n", "")
        assert run(capsys, "render", "UUDDUD", "--svg", str(svg)) == plain
        assert svg.read_text() == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="96" height="48">'
            '<polyline points="12,36 24,24 36,12 48,24 60,36 72,24 84,36" '
            'fill="none" stroke="black" stroke-width="2"/></svg>\n'
        )

    @pytest.mark.parametrize("path", ["UDDU", "D", "UUDDJ", "UUD"])
    def test_render_svg_rejects_invalid_path(self, path):
        with pytest.raises(PathError, match="invalid path"):
            render_svg(path)

    def test_coeffs_json(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--tau", "312", "--r", "1", "--n-max", "7")
        assert code == 0
        assert json.loads(out) == ["0", "0", "0", "1", "5", "21", "84", "330"]

    def test_coeffs_csv(self, capsys):
        code, out, _ = run(
            capsys, "coeffs", "--tau", "321", "--r", "2", "--n-max", "5", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "n,coefficient"
        assert lines[5] == "4,3" and lines[6] == "5,24"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(
            capsys, "map", "4,3,5,1,2", "--tau", "321", "--output", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().strip() == "UUUUDJJDUUUDDD"


class TestUnwritablePath:
    """A path that cannot be written is a usage error (exit 2) with one
    ``error:`` line, not a traceback."""

    def _assert_usage_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return out

    def test_output_in_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        argv = ("map", "2,1", "--tau", "312", "--output", str(target))
        assert self._assert_usage_error(capsys, *argv) == ""
        assert not target.parent.exists()

    def test_svg_in_missing_directory(self, capsys, tmp_path):
        self._assert_usage_error(capsys, "render", "UD", "--svg", str(tmp_path / "x" / "p.svg"))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failed_svg_prints_nothing(self, capsys, tmp_path, fmt):
        argv = ("render", "UD", "--format", fmt, "--svg", str(tmp_path / "x" / "p.svg"))
        assert self._assert_usage_error(capsys, *argv) == ""

    def test_cache_dir_under_a_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(census, "_memo", {})
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ("table", "--tau", "312", "--n", "4", "--cache-dir", str(blocker / "cache"))
        assert self._assert_usage_error(capsys, *argv) == ""


class TestClosedPipe:
    """A reader that closes stdout before the output is written, as ``|
    head -1`` does, ends the command with exit 141 and nothing on stderr."""

    @staticmethod
    def _cli(*argv, stdout):
        src = str(Path(permdyck.__file__).resolve().parents[1])
        return subprocess.Popen(
            [sys.executable, "-m", "permdyck.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )

    def test_reader_closes_after_the_first_line(self, capsys):
        # about 0.7 MB of picture, far more than a pipe holds, so the command
        # is still writing when the reader goes
        path = "U" * 700 + "D" * 700
        _, out, _ = run(capsys, "render", path)
        with self._cli("render", path, stdout=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == EXIT_PIPE == 141
        assert err == b""
        assert first.decode() == out.splitlines(keepends=True)[0]

    def test_table_into_a_closed_pipe(self):
        read, write = os.pipe()
        os.close(read)
        with self._cli("table", "--tau", "312", "--n", "0..9", "--cache-dir", "", stdout=write) as proc:
            os.close(write)
            err = proc.stderr.read()
        assert proc.returncode == EXIT_PIPE
        assert err == b""


def loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after ``code``."""
    code += "\nimport json, sys; print(json.dumps(list(sys.modules)))"
    src = str(Path(permdyck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_submodules(code: str) -> set[str]:
    """The ``permdyck.*`` modules a fresh interpreter holds after ``code``."""
    return {m for m in loaded_modules(code) if m.startswith("permdyck.")}


class TestStartupImports:
    """Each command loads only the modules it runs."""

    def test_package_import_loads_no_submodule(self):
        assert loaded_submodules("import permdyck") == set()

    @staticmethod
    def _load_set(*modules: str) -> set[str]:
        """``permdyck.<m>`` of each module named, "backend" standing for
        the kernel module ``kernels`` selects."""
        backend = "_fastcount" if kernels.BACKEND == "c" else "_purecount"
        return {f"permdyck.{backend if m == 'backend' else m}" for m in modules}

    def test_cli_import_and_table(self):
        assert loaded_submodules("import permdyck.cli as c\nc.build_parser()") == {"permdyck.cli"}
        # a table that sweeps (no cache) loads the kernel, and no perms
        code = (
            "from permdyck import cli\n"
            "cli.main(['table', '--tau', '312', '--n', '4', '--cache-dir', ''])"
        )
        assert loaded_submodules(code) == self._load_set("cli", "census", "kernels", "backend")

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (["verify", "--formulas", "--n-max", "6"], ("cli", "census", "kernels", "backend", "recorded")),
            (["verify", "--conjectures", "--n-max", "6"], ("cli", "census", "kernels", "backend", "recorded")),
            (["verify", "--assemblies", "--order", "8"], ("cli", "series", "recorded")),
            (["verify", "--general-form", "--order", "60"], ("cli", "series", "recorded")),
            (["coeffs", "--tau", "321", "--r", "4"], ("cli", "recorded")),
        ],
    )
    def test_command_load_set(self, argv, modules):
        code = f"from permdyck import cli\nassert cli.main({argv!r}) == 0"
        assert loaded_submodules(code) == self._load_set(*modules)

    def test_table_from_the_cache_loads_no_kernel(self, tmp_path):
        # a cold table sweeps and writes the cache; a warm one, from the same
        # directory, reads it and loads neither perms nor a kernel
        argv = ["table", "--tau", "321", "--n", "0..6", "--cache-dir", str(tmp_path)]
        code = f"from permdyck import cli\nassert cli.main({argv!r}) == 0"
        assert loaded_submodules(code) == self._load_set("cli", "census", "kernels", "backend")
        assert loaded_submodules(code) == self._load_set("cli", "census")

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--tau", "321", "--n", "0..6", "--cache-dir", ""],
            ["verify", "--formulas", "--n-max", "6"],
            ["verify", "--conjectures", "--n-max", "6"],
            ["coeffs", "--tau", "321", "--r", "4"],
        ],
    )
    def test_commands_load_no_pure_kernel_numbers_or_fractions(self, argv):
        # the pure kernel is loaded only when it is the selected backend
        loaded = loaded_modules(f"from permdyck import cli\ncli.main({argv!r})")
        # coeffs loads no kernel at all
        assert ("permdyck._purecount" in loaded) == (kernels.BACKEND == "python" and argv[0] != "coeffs")
        assert "numbers" not in loaded
        if argv[0] != "table":
            assert not loaded & {"fractions", "decimal"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "4,3,5,1,2", "--tau", "312"],
            ["decode", "UUDD", "--mode", "321avoid"],
            ["render", "UUUUDDUDJDUD"],
            ["coeffs", "--tau", "321", "--r", "4"],
            ["verify", "--assemblies", "--order", "8"],
            ["verify", "--general-form", "--order", "60"],
        ],
    )
    def test_commands_without_census(self, argv):
        code = f"from permdyck import cli\nassert cli.main({argv!r}) == 0"
        assert "permdyck.census" not in loaded_submodules(code)

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--tau", "312", "--n", "4", "--cache-dir", ""],
            ["bases", "--tau", "312", "--r", "1"],
            ["verify", "--formulas", "--n-max", "6"],
            ["verify", "--conjectures", "--n-max", "6"],
        ],
    )
    def test_commands_with_census(self, argv):
        code = f"from permdyck import cli\nassert cli.main({argv!r}) == 0"
        assert "permdyck.census" in loaded_submodules(code)

    @staticmethod
    def _exit_code(argv) -> int:
        # a fresh interpreter, so that only the command itself loads census
        src = str(Path(permdyck.__file__).resolve().parents[1])
        code = "import sys\nfrom permdyck import cli\nsys.exit(cli.main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
        return proc.returncode

    def test_default_limit_guards_table(self):
        # --limit defaults to None, which table reads as census.DEFAULT_LIMIT
        assert build_parser().parse_args(["table", "--tau", "312", "--n", "5"]).limit is None
        assert self._exit_code(["table", "--tau", "312", "--n", str(census.DEFAULT_LIMIT + 1)]) == 3

    def test_corrupt_cache_exit_code(self, tmp_path):
        bad = tmp_path / "312" / "5.json"
        bad.parent.mkdir()
        bad.write_text("{")
        argv = ["table", "--tau", "312", "--n", "5", "--cache-dir", str(tmp_path)]
        assert self._exit_code(argv) == EXIT_CACHE == 4

    def test_other_runtime_errors_propagate(self, monkeypatch):
        def broken(args):
            raise RuntimeError("not a census error")

        monkeypatch.setattr(cli, "_cmd_coeffs", broken)
        with pytest.raises(RuntimeError, match="not a census error"):
            main(["coeffs", "--tau", "321", "--r", "2"])

    def test_cli_start_loads_no_dataclasses_inspect_or_hashlib(self):
        loaded = loaded_modules("import permdyck.cli as c\nc.build_parser()")
        assert not loaded & {"dataclasses", "inspect", "hashlib"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--formulas", "--n-max", "6"],
            ["coeffs", "--tau", "321", "--r", "2"],
        ],
    )
    def test_commands_without_cache_load_no_hashlib(self, argv):
        loaded = loaded_modules(f"from permdyck import cli\ncli.main({argv!r})")
        assert "hashlib" not in loaded

    def test_table_up_to_s9_starts_no_pool(self):
        # four CPUs, so the sweep would shard if the pool paid for it
        code = (
            "import os\nos.cpu_count = lambda: 4\nfrom permdyck import cli\n"
            "cli.main(['table', '--tau', '312', '--n', '0..9', '--cache-dir', ''])"
        )
        assert "concurrent.futures" not in loaded_modules(code)
