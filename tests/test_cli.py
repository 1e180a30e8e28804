"""End-to-end command-line tests driven through run(argv)."""

import argparse
import hashlib
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import symbirack as sb
from symbirack import cli
from symbirack.cli import run

_DATA = files("symbirack").joinpath("data")

ORDER3 = str(_DATA.joinpath("tables/order3.birack"))
ORDER4 = str(_DATA.joinpath("tables/order4.birack"))
VHOPF = str(_DATA.joinpath("diagrams/vhopf.vlink"))
UNKNOT = str(_DATA.joinpath("diagrams/unknot.vlink"))

# under column y=1 sends both elements to 1, so it is not an involution
BROKEN_TABLE = "1 1  1 2  1 2\n1 1  2 1  2 1\n"


class TestCheck:
    def test_pass_order3(self, capsys):
        assert run(["check", ORDER3]) == 0
        assert capsys.readouterr().out == "PASS  pi=(23)  N=2\n"

    def test_pass_order4(self, capsys):
        assert run(["check", ORDER4]) == 0
        assert capsys.readouterr().out == "PASS  pi=(34)  N=2\n"

    def test_fail_lists_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.birack"
        bad.write_text(BROKEN_TABLE)
        assert run(["check", str(bad)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FAIL"
        assert len(lines) > 1
        assert all("fails at witness (" in line for line in lines[1:])

    def test_missing_file(self, tmp_path, capsys):
        assert run(["check", str(tmp_path / "nope.birack")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.birack"
        bad.write_text("1 2 three\n")
        assert run(["check", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestInvolutions:
    def test_order3(self, capsys):
        assert run(["involutions", ORDER3]) == 0
        assert capsys.readouterr().out == "()\n(23)\n"

    def test_order4(self, capsys):
        assert run(["involutions", ORDER4]) == 0
        assert capsys.readouterr().out == "()\n(34)\n"

    def test_rejects_failing_table(self, tmp_path, capsys):
        bad = tmp_path / "bad.birack"
        bad.write_text(BROKEN_TABLE)
        assert run(["involutions", str(bad)]) == 1
        assert "table fails axioms" in capsys.readouterr().err


class TestInvariant:
    def test_plain(self, capsys):
        assert run(["invariant", ORDER3, VHOPF]) == 0
        assert capsys.readouterr().out == "Phi_Z = 16\n"

    def test_plain_unknot(self, capsys):
        assert run(["invariant", ORDER3, UNKNOT]) == 0
        assert capsys.readouterr().out == "Phi_Z = 4\n"

    def test_kv(self, capsys):
        assert run(["invariant", ORDER3, VHOPF, "--kv"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "framing=(0,0)", "count=3",
            "framing=(0,1)", "count=5",
            "framing=(1,0)", "count=5",
            "framing=(1,1)", "count=3",
            "phi_z=16",
        ]

    def test_verbose_dumps_labelings(self, capsys):
        assert run(["invariant", ORDER3, UNKNOT, "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "w=(0) : 3 labelings"
        assert lines[1] == "  labeling 1:"
        assert lines[2] == "    s=1"
        assert lines[-1] == "Phi_Z = 4"


class TestEnhance:
    def test_vhopf_report(self, capsys):
        assert run(["enhance", ORDER3, VHOPF, "--rho", "(23)"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "w=(0,0) : u+u^2 (3 labelings)",
            "w=(0,1) : u+u^4 (5 labelings)",
            "w=(1,0) : u+2u^2 (5 labelings)",
            "w=(1,1) : u+u^2 (3 labelings)",
            "Phi_Z = 16",
            "Phi_rho = 4u+4u^2+u^4",
        ]

    def test_unknot_identity(self, capsys):
        assert run(["enhance", ORDER3, UNKNOT, "--rho", "()"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "w=(0) : 3u (3 labelings)",
            "w=(1) : u (1 labelings)",
            "Phi_Z = 4",
            "Phi_rho = 4u",
        ]

    def test_kv(self, capsys):
        assert run(["enhance", ORDER3, VHOPF, "--rho", "(23)", "--kv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["framing=(0,0)", "poly=u+u^2", "count=3"]
        assert lines[-2:] == ["phi_z=16", "phi_rho=4u+4u^2+u^4"]
        assert len(lines) == 4 * 3 + 2

    def test_rho_not_good(self, capsys):
        assert run(["enhance", ORDER3, VHOPF, "--rho", "(12)"]) == 1
        assert "(12) is not a good involution" in capsys.readouterr().err

    def test_rho_syntax_error(self, capsys):
        assert run(["enhance", ORDER3, VHOPF, "--rho", "xyz"]) == 2
        assert capsys.readouterr().err.startswith("error: bad permutation")

    def test_identity_rho_matches_invariant(self, corpus, capsys):
        # Phi_rho under the identity is Phi_Z shifted onto u
        for name in ("unknot", "trefoil", "vhopf"):
            path = str(_DATA.joinpath(f"diagrams/{name}.vlink"))
            assert run(["invariant", ORDER3, path]) == 0
            phi_z = int(capsys.readouterr().out.split("=")[1])
            assert run(["enhance", ORDER3, path, "--rho", "()", "--kv"]) == 0
            kv = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.splitlines()
                      if line.startswith("phi_"))
            assert kv["phi_z"] == str(phi_z)
            assert kv["phi_rho"] == f"{phi_z}u"


class TestCensus:
    def test_writes_directory(self, tmp_path, capsys):
        out = tmp_path / "census"
        assert run(["census", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == \
            f"wrote 9 tables (orders 1..2) to {out}\n"
        files_ = sorted(p.name for p in out.iterdir())
        assert files_ == [f"{i:04d}.birack" for i in range(1, 10)] + ["index.txt"]
        t = sb.parse_birack_matrix((out / "0002.birack").read_text())
        assert sb.check_axioms(t).passed

    def test_order1_message(self, tmp_path, capsys):
        out = tmp_path / "census"
        assert run(["census", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 1 tables (order 1) to {out}\n"

    def test_cap_guard(self, tmp_path, capsys):
        assert run(["census", "5", "--out", str(tmp_path / "x")]) == 1
        assert "cap exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_order(self, tmp_path, capsys, n):
        out = tmp_path / "x"
        assert run(["census", n, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: order must be positive\n"
        assert not out.exists()


class TestDistinguish:
    def test_first_witness(self, capsys):
        assert run(["distinguish", "3", "--limit", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("witness 1: order=3  rho=(23)  mixed3 vs vhopf  "
                            "Phi_Z=5  Phi_rho: u+2u^2 vs u+u^4")
        # three matrix rows, each under/over/virt blocks of the witness table
        assert len(lines) == 5
        assert all(line.startswith("    ") for line in lines[1:4])
        assert lines[1] == "    1 1 1  1 1 1  1 1 1"
        assert lines[4] == "found 1 witness(es)"

    def test_order3_output_is_pinned(self, capsys):
        # 12 witnesses of 4 lines each plus the summary line
        assert run(["distinguish", "3"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 49
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e0535d60ae5f52d6380409972e2e26ed33e6c212d93c016154971fd5a77e7e3d")

    def test_cap_guard(self, capsys):
        assert run(["distinguish", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap exceeded: order 5 > cap 4" in captured.err

    def test_nonpositive_order(self, capsys):
        assert run(["distinguish", "0"]) == 1
        assert capsys.readouterr().err == "error: order must be positive\n"

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_nonpositive_limit_is_a_usage_error(self, capsys, limit):
        assert run(["distinguish", "3", "--limit", limit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --limit must be positive, got {limit}\n"

    def test_no_witnesses_at_order1(self, capsys):
        assert run(["distinguish", "1"]) == 0
        assert capsys.readouterr().out == "no witnesses found\n"

    def test_extra_corpus_directory(self, tmp_path, capsys):
        extra = tmp_path / "more"
        extra.mkdir()
        body = _DATA.joinpath("diagrams/vhopf.vlink").read_text()
        (extra / "extra.vlink").write_text(body.replace("link vhopf", "link extra"))
        assert run(["distinguish", "3", "--limit", "1",
                    "--corpus", str(extra)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("witness 1:")
        assert "found 1 witness(es)" in out

    def test_empty_corpus_is_the_working_directory(self, tmp_path, monkeypatch, capsys):
        body = _DATA.joinpath("diagrams/vhopf.vlink").read_text()
        (tmp_path / "extra.vlink").write_text(body.replace("link vhopf", "link extra"))
        monkeypatch.chdir(tmp_path)
        assert run(["distinguish", "3", "--corpus", str(tmp_path)]) == 0
        named = capsys.readouterr().out
        assert " extra " in named
        assert run(["distinguish", "3", "--corpus", ""]) == 0
        assert capsys.readouterr().out == named

    @pytest.mark.parametrize("name", ["missing", "file"])
    def test_corpus_must_be_a_directory(self, tmp_path, monkeypatch, capsys, name):
        path = tmp_path / name
        if name == "file":
            path.write_text("not a directory\n")

        def spy(*args, **kwargs):
            raise AssertionError("census_records called")

        monkeypatch.setattr(cli, "census_records", spy)
        assert run(["distinguish", "2", "--corpus", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --corpus {str(path)!r} is not a directory\n"


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_rho(self, capsys):
        assert run(["enhance", ORDER3, VHOPF]) == 2

    def test_output_is_deterministic(self, capsys):
        run(["enhance", ORDER3, VHOPF, "--rho", "(23)"])
        first = capsys.readouterr().out
        run(["enhance", ORDER3, VHOPF, "--rho", "(23)"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("argv, code", [
        (["invariant", ORDER3, VHOPF], 0),
        (["enhance", ORDER3, VHOPF, "--rho", "(23)", "--kv"], 0),
        (["enhance", ORDER3, UNKNOT, "--rho", "()", "--verbose"], 0),
        (["enhance", ORDER3, VHOPF, "--rho", "(12)"], 1),
        (["enhance", ORDER3, VHOPF], 2),
        (["--help"], 0),
        (["enhance", "--help"], 0),
        (["frobnicate"], 2),
    ])
    def test_repeated_runs_print_the_same(self, capsys, argv, code):
        outcomes = []
        for _ in range(2):
            outcomes.append((run(argv), *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == code
        out, err = outcomes[0][1:]
        if code == 2:
            assert out == ""
            assert err.startswith("usage: symbirack")
        elif argv[-1] == "--help":
            assert out.startswith("usage: symbirack")
        elif code == 0:
            assert out and err == ""
        else:
            assert err.startswith("error: ")

    def test_parser_is_built_once(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        cli._parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert run(["check", ORDER3]) == 0
        assert run(["involutions", ORDER3]) == 0
        # the main parser and one subparser per command
        assert len(built) == 7

    def test_main_raises_systemexit(self, monkeypatch):
        monkeypatch.setattr("sys.argv", ["symbirack", "check", ORDER3])
        from symbirack.cli import main
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0

    def test_python_dash_m_matches_run(self, capsys):
        env = dict(os.environ)
        package_root = str(Path(sb.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "symbirack", "check", ORDER3],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert run(["check", ORDER3]) == 0
        assert proc.stdout == capsys.readouterr().out
