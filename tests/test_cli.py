import json
from pathlib import Path

import pytest

from qpencil.cli import (
    BUILTINS,
    ScenarioParseError,
    _solve_groups,
    format_scenario,
    load_builtin,
    main,
    parse_scenario,
    run_scenario,
)
from qpencil import exact
from qpencil.logic import ContextHypergraph, is_separating, two_valued_states
from qpencil.pauli import PauliString, parse_pauli, realization
from qpencil.pencil import VerificationError, joint_context

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"

# three groups whose 24 rays have a maximal orthogonal clique of size 6 < d = 8
NON_COMPLETABLE = (
    "sites 3\nmode hypergraph\n"
    "group\nIZX\nZYY\nZII\ngroup\nIZY\nYYX\nIXZ\ngroup\nYIY\nYZY\nXIZ\n"
)


class TestScenarioParser:
    def test_pencil_group(self):
        s = parse_scenario(b"sites 2\nmode pencil\ngroup\nZX\nXZ\nYY\n")
        assert s.site_count == 2
        assert s.mode == "pencil"
        assert len(s.groups) == 1
        assert [len(obs) for obs in s.groups[0]] == [1, 1, 1]

    def test_parity_products(self):
        s = parse_scenario(b"sites 2\nmode parity\ngroup\nZX*XZ\nXX*ZZ\n")
        assert len(s.groups[0]) == 2
        assert [len(obs) for obs in s.groups[0]] == [2, 2]
        assert s.groups[0][0] == (
            PauliString(("Z", "X")),
            PauliString(("X", "Z")),
        )

    def test_wrong_length_error_carries_line_number(self):
        with pytest.raises(ScenarioParseError, match="line 3"):
            parse_scenario(b"sites 2\ngroup\nZXX\n")

    def test_unknown_letter(self):
        with pytest.raises(ScenarioParseError, match="unknown letter"):
            parse_scenario(b"sites 2\ngroup\nZQ\n")

    def test_malformed_phase(self):
        with pytest.raises(ScenarioParseError, match="phase"):
            parse_scenario(b"sites 2\ngroup\n+2 ZX\n")

    def test_phase_prefix_parses(self):
        s = parse_scenario(b"sites 3\ngroup\n-1 XYY\n")
        assert s.groups[0][0][0].phase_power == 2

    def test_empty_group(self):
        with pytest.raises(ScenarioParseError, match="empty group"):
            parse_scenario(b"sites 2\ngroup\ngroup\nZX\n")
        with pytest.raises(ScenarioParseError, match="empty group"):
            parse_scenario(b"sites 2\ngroup\n")

    def test_observable_outside_group(self):
        with pytest.raises(ScenarioParseError, match="outside"):
            parse_scenario(b"sites 2\nZX\n")

    def test_missing_sites(self):
        with pytest.raises(ScenarioParseError, match="sites"):
            parse_scenario(b"group\nZX\n")
        # no observable line to report it at: the end-of-file check names line 1
        with pytest.raises(ScenarioParseError, match="^line 1: missing 'sites N' declaration$"):
            parse_scenario(b"mode parity\ngroup\n")

    def test_no_groups(self):
        with pytest.raises(ScenarioParseError, match="^line 1: no groups declared$"):
            parse_scenario(b"sites 2\nmode parity\n")

    def test_group_line_takes_no_arguments(self):
        with pytest.raises(ScenarioParseError, match="^line 2: a group line takes no arguments$"):
            parse_scenario(b"sites 2\ngroup ZX\n")

    def test_duplicate_declarations(self):
        with pytest.raises(ScenarioParseError, match="duplicate"):
            parse_scenario(b"sites 2\nsites 2\n")
        with pytest.raises(ScenarioParseError, match="duplicate"):
            parse_scenario(b"sites 2\nmode parity\nmode parity\n")

    @pytest.mark.parametrize(
        "count", ["\u00b2", "\u0663", "1\u00b2"], ids=["sup2", "arabic3", "1sup2"]
    )
    def test_site_count_takes_ascii_digits_only(self, count):
        # str.isdigit accepts these, but int() fails on superscripts
        with pytest.raises(ScenarioParseError, match="line 1: expected 'sites N'"):
            parse_scenario(f"sites {count}\ngroup\nZX\n")

    def test_bad_mode(self):
        with pytest.raises(ScenarioParseError, match="mode"):
            parse_scenario(b"sites 2\nmode banana\n")

    def test_comments_and_blanks_ignored(self):
        s = parse_scenario(
            b"# header\nsites 2\n\nmode parity  # trailing\ngroup\n  ZX*XZ # x\n"
        )
        assert s.mode == "parity"
        assert len(s.groups[0]) == 1

    def test_default_mode_is_pencil(self):
        s = parse_scenario(b"sites 2\ngroup\nZX\n")
        assert s.mode == "pencil"

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_roundtrip_builtin_files(self, name):
        s = load_builtin(name)
        assert parse_scenario(format_scenario(s)) == s

    def test_roundtrip_with_phases_and_products(self):
        text = "sites 2\nmode parity\ngroup\n-1 ZX*XZ\n+i XX\ngroup\nYY\n"
        s = parse_scenario(text)
        assert parse_scenario(format_scenario(s)) == s


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_pm_square_json(self, capsys):
        code, out, err = run_cli(capsys, "pm-square", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["hypergraph"]["vertices"]) == 24
        assert len(data["hypergraph"]["edges"]) == 24
        assert data["two_valued_states"] == 0
        assert data["classification"]["separable_vertices"] == 16
        assert data["classification"]["entangled_vertices"] == 8
        assert len(data["separable_edges"]) == 12
        assert len(data["entangled_edges"]) == 4
        assert len(data["primary_edges"]) == 6

    def test_ghzm_text_reports_contradiction(self, capsys):
        code, out, err = run_cli(capsys, "ghzm")
        assert code == 0
        assert "quantum product -1" in out
        assert "classical forced product +1" in out
        assert "CONTRADICTION" in out
        assert "two-valued states: 8 (separating)" in out

    def test_bipartite_text(self, capsys):
        code, out, err = run_cli(capsys, "bipartite")
        assert code == 0
        assert "degenerate pencil spectrum: -1 (x2), 1 (x2)" in out
        assert "CONTRADICTION" in out

    def test_intro_pair(self, capsys):
        code, out, err = run_cli(capsys, "intro-pair")
        assert code == 0
        assert "(1, 1, -1, 1)" in out

    @pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt")])
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin_output_matches_golden(self, capsys, name, fmt, suffix):
        code, out, _ = run_cli(capsys, name, "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")

    def test_no_gaussian_rational_on_the_integer_path(self, capsys, monkeypatch):
        # from Pauli words to CLI output every scalar is a Gaussian integer:
        # the exact layer builds Fractions only in these two functions
        def refuse(*args):
            raise RuntimeError("Fraction scalar built between words and output")

        for name in ("_as_fraction", "_scalar"):
            monkeypatch.setattr(exact, name, refuse)
        formats = ("text", "json")
        runs = [(name, "--format", fmt) for name in sorted(BUILTINS) for fmt in formats]
        runs += [("pm-square", "--format", "dot"), ("export",), ("subsets", "--critical")]
        for argv in runs:
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)
        ghz5 = ("XXXXX", "ZZIII", "IZZII", "IIZZI", "IIIZZ")
        ctx = joint_context([realization(parse_pauli(w)) for w in ghz5])
        assert len(ctx.rays) == 32

    def test_parity_states_match_the_search(self):
        # parity mode reads d separating states off a context's certified
        # basis; the search over that one-context hypergraph must agree
        scenarios = [load_builtin("ghzm"), load_builtin("bipartite")]
        for n in range(1, 7):
            words = ["X" * n] + ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
            text = f"sites {n}\nmode parity\ngroup\n" + "\n".join(words)
            scenarios.append(parse_scenario(text.encode()))
        contexts = 0
        for s in scenarios:
            groups = run_scenario(s)["groups"]
            for (_, ctx, _), group in zip(_solve_groups(s, None), groups):
                if ctx is None:
                    assert "states" not in group
                    continue
                h = ContextHypergraph.from_ray_groups([ctx.rays])
                states = two_valued_states(h)
                expected = {"count": len(states), "separating": is_separating(states, h)}
                assert group["states"] == expected == {"count": len(ctx.rays), "separating": True}
                contexts += 1
        assert contexts == 9  # ghzm 1, bipartite 2 of 3, GHZ n = 1..6

    def test_determinism(self, capsys):
        first = run_cli(capsys, "pm-square", "--format", "json")
        second = run_cli(capsys, "pm-square", "--format", "json")
        assert first == second

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_analyze_file_matches_builtin(self, capsys, name):
        import qpencil

        path = (
            __import__("importlib.resources", fromlist=["files"])
            .files("qpencil")
            .joinpath("scenarios", BUILTINS[name])
        )
        builtin = run_cli(capsys, name)
        via_file = run_cli(capsys, "analyze", "--file", str(path))
        assert builtin == via_file

    def test_coeffs_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "intro-pair", "--coeffs", "3,5", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["groups"][0]["result"]["pencil_eigenvalues"] == [-8, -2, 2, 8]

    def test_out_flag(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "ghzm", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text())
        assert data["mode"] == "parity"

    def test_export_json(self, capsys):
        code, out, _ = run_cli(capsys, "export", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 4
        assert len(data["vertices"]) == 24

    def test_export_dot(self, capsys, tmp_path):
        scn = tmp_path / "ghzm_copy.scn"
        scn.write_text(format_scenario(load_builtin("ghzm")))
        code, out, _ = run_cli(capsys, "export", "--format", "dot", "--file", str(scn))
        assert code == 0
        assert out.startswith('graph "contexts"')
        assert out.count(" -- ") == 7  # one 8-vertex chain

    def test_dot_format_on_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "pm-square", "--format", "dot")
        assert code == 0
        assert out.count(" -- ") == 3 * 24

    def test_subsets_on_single_context_scenario(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "subsets",
            "--file",
            str(_write(tmp_path, "sites 3\nmode parity\ngroup\nXXX\nXYY\nYXY\nYYX\n")),
        )
        assert code == 0
        assert "no-state sub-collections: 0" in out


def _write(tmp_path, text):
    p = tmp_path / "scenario.scn"
    p.write_text(text)
    return p


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "analyze")
        assert code == 1
        assert "error" in err

    def test_unknown_command_is_1(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_parse_error_is_1(self, capsys, tmp_path):
        path = _write(tmp_path, "sites 2\ngroup\nZXX\n")
        code, _, err = run_cli(capsys, "analyze", "--file", str(path))
        assert code == 1
        assert "line 3" in err

    def test_missing_file_is_1(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--file", "/nonexistent.scn")
        assert code == 1

    def test_non_utf8_file_is_1(self, capsys, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run_cli(capsys, "analyze", "--file", str(path))
        assert code == 1
        assert "scenario error: not UTF-8 text" in err

    @pytest.mark.parametrize(
        "command, flag", [("analyze", "--file"), ("intro-pair", "--out")], ids=["file", "out"]
    )
    def test_directory_path_is_1(self, capsys, tmp_path, command, flag):
        code, _, err = run_cli(capsys, command, flag, str(tmp_path))
        assert code == 1
        assert err.startswith("qpencil: error: [Errno 21] Is a directory")

    def test_bad_coeffs_is_1(self, capsys):
        code, _, err = run_cli(capsys, "intro-pair", "--coeffs", "a,b")
        assert code == 1

    def test_coeffs_arity_mismatch_is_1(self, capsys):
        code, _, err = run_cli(capsys, "intro-pair", "--coeffs", "1,2,3")
        assert code == 1

    @pytest.mark.parametrize(
        "command, coeffs, reason",
        [
            # eigh cannot resolve the spectrum +/-10^10 +/- 1 to integers
            ("intro-pair", f"{10**10},1", "pencil eigenvalue"),
            # from 2^52 on every float is an integer, so none resolves the spectrum
            ("intro-pair", f"{10**16},1", "pencil eigenvalue"),
            ("ghzm", f"{10**16},1,1,1", "pencil eigenvalue"),
            # a 401-digit entry overflows float64 itself
            ("intro-pair", f"{10**400},1", "integer division result too large"),
        ],
        ids=["1e10", "1e16", "ghzm-1e16", "1e400"],
    )
    def test_coeffs_beyond_float_resolution_is_1(self, capsys, command, coeffs, reason):
        # no exact check ran
        code, out, err = run_cli(capsys, command, "--coeffs", coeffs)
        assert code == 1
        assert out == ""
        assert err.startswith(
            "qpencil: error: coefficients beyond the float stage's resolution: " + reason
        )
        assert "np.float64" not in err  # the value as a plain float, not numpy's repr

    def test_ghzm_coeffs_below_float_integer_range_succeed(self, capsys):
        # 10^15 < 2^52: the degenerate spectrum is still resolved and certified
        code, out, err = run_cli(capsys, "ghzm", "--coeffs", f"{10**15},1,1,1")
        assert (code, err) == (0, "")
        assert "  degenerate pencil spectrum: -1000000000000001 (x3), -999999999999997 (x1), " \
            "999999999999997 (x1), 1000000000000001 (x3)\n" in out

    def test_large_coeffs_within_float_resolution_succeed(self, capsys):
        code, out, err = run_cli(capsys, "intro-pair", "--coeffs", "1000000000,1")
        assert (code, err) == (0, "")
        assert out == (
            "mode: pencil | sites: 2\n"
            "group 1: ZX, YY\n"
            "  eigenvalue  ray              ZX  YY\n"
            "  -1000000001  (1, -1, 1, 1)    -1  -1\n"
            "  -999999999  (1, -1, -1, -1)  -1  +1\n"
            "   999999999  (1, 1, -1, 1)    +1  -1\n"
            "  1000000001  (1, 1, 1, -1)    +1  +1\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [("subsets", "--jobs", "2"), ("intro-pair", "--max-snap-norm", "1")],
        ids=["jobs", "max-snap-norm"],
    )
    def test_removed_flag_is_unknown(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "cap", ["SUBSET_SWEEP_EDGE_CAP", "SUBSET_SWEEP_VERTEX_CAP"], ids=["edge", "vertex"]
    )
    def test_sweep_over_edge_cap_is_1(self, capsys, tmp_path, monkeypatch, cap):
        monkeypatch.setattr(f"qpencil.logic.{cap}", 0)
        path = _write(tmp_path, "sites 2\nmode pencil\ngroup\nZX\nYY\n")
        code, _, err = run_cli(capsys, "subsets", "--file", str(path))
        assert code == 1
        assert "sweep cap" in err

    def test_parity_builtin_with_a_degenerate_group_has_no_dot_output(self, capsys):
        # dot and export need a context from every group; bipartite's group 1
        # is degenerate by design
        code, out, err = run_cli(capsys, "bipartite", "--format", "dot")
        assert (code, out) == (1, "")
        assert "scenario error: group 1 has a degenerate pencil" in err

    @pytest.mark.parametrize("command", ["analyze", "export", "subsets"])
    def test_non_completable_rays_are_1(self, capsys, tmp_path, command):
        path = _write(tmp_path, NON_COMPLETABLE)
        code, out, err = run_cli(capsys, command, "--file", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(
            "qpencil: scenario error: maximal clique (0, 7, 10, 14, 19, 20) has size 6, "
            "expected 8: the ray set is not completable"
        )

    def test_failed_exact_recheck_is_2(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise VerificationError("injected re-check failure")

        monkeypatch.setattr("qpencil.cli.joint_context", fail)
        code, out, err = run_cli(capsys, "intro-pair")
        assert (code, out) == (2, "")
        assert err == "qpencil: verification failure: injected re-check failure\n"

    @pytest.mark.parametrize("command", ["analyze", "export", "subsets"])
    def test_degenerate_group_in_hypergraph_mode_is_1(self, capsys, tmp_path, command):
        path = _write(tmp_path, "sites 2\nmode hypergraph\ngroup\nZI\n")
        code, _, err = run_cli(capsys, command, "--file", str(path))
        assert code == 1
        assert "scenario error: group 1 has a degenerate pencil" in err

    @pytest.mark.parametrize("command", ["analyze", "subsets", "export"])
    def test_noncommuting_group_is_1(self, capsys, tmp_path, command):
        path = _write(tmp_path, "sites 2\nmode pencil\ngroup\nXI\nIZ\nZI\n")
        code, _, err = run_cli(capsys, command, "--file", str(path))
        assert code == 1
        assert "scenario error: XI and ZI do not commute" in err

    @pytest.mark.parametrize(
        "command,text,name",
        [
            ("analyze", "sites 1\ngroup\n+i Z\n", "+i Z"),
            ("analyze", "sites 2\nmode parity\ngroup\n+i ZX\n", "+i ZX"),
            ("analyze", "sites 1\nmode parity\ngroup\nX*Z\n", "X*Z"),
            ("subsets", "sites 1\ngroup\n+i Z\n", "+i Z"),
        ],
        ids=["pencil", "parity", "anticommuting-factors", "subsets"],
    )
    def test_non_hermitian_observable_is_1(self, capsys, tmp_path, command, text, name):
        path = _write(tmp_path, text)
        code, _, err = run_cli(capsys, command, "--file", str(path))
        assert code == 1
        assert f"scenario error: {name} is not Hermitian" in err

    def test_noncommuting_products_are_named(self, capsys, tmp_path):
        path = _write(tmp_path, "sites 2\nmode parity\ngroup\nZX*XZ\n-1 ZI\n")
        code, _, err = run_cli(capsys, "analyze", "--file", str(path))
        assert code == 1
        assert "scenario error: ZX*XZ and -1 ZI do not commute" in err

    @pytest.mark.parametrize(
        "count",
        ["\u00b2", "\u0663", "0", "-1", "2 2", "11"],
        ids=["sup2", "arabic3", "0", "-1", "2-2", "11"],
    )
    def test_non_ascii_or_nonpositive_site_count_is_1(self, capsys, tmp_path, count):
        path = _write(tmp_path, f"sites {count}\ngroup\nZX\n")
        code, _, err = run_cli(capsys, "analyze", "--file", str(path))
        assert code == 1
        assert "scenario error: line 1: expected 'sites N'" in err
