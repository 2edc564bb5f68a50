import json
import warnings
from pathlib import Path

import pytest

from igusa.cli import JobConfig, main, parse_config, report_json, run
from igusa.newton import MAX_DIMENSION

JOB_72 = """\
vars = x, y
prime = 5
depth = 3

[polys]
x^2 + y^2
x^4 + y^4 + x*y
"""

JOB_71 = """\
vars = x, y, z
prime = 5
depth = 2

[polys]
x + y - z
x^8 + y^8 + z^8 + x^2*y^2*z^2
"""

JOB_LINE = """\
vars = x, y
prime = 3
depth = 3

[polys]
x + y
x^2 + y^2
"""

JOB_DEGENERATE = """\
vars = x, y
prime = 3

[polys]
2*x^8 + 8*x^7*y + 28*x^6*y^2 + 56*x^5*y^3 + 70*x^4*y^4 + 56*x^3*y^5 + 28*x^2*y^6 + 8*x*y^7 + 2*y^8 + x^4*y^2 + 2*x^3*y^3 + x^2*y^4
"""

# (x^3 - y^2)^2 at p = 13: the orbit slice of direction (2, 3) has 24
# points and the torus 144, so a budget of 100 admits the slice only.
JOB_CUSP_SQUARED = """\
vars = x, y
prime = 13
budget = 100

[polys]
x^6 - 2*x^3*y^2 + y^4
"""

# Two convenient systems at p = 11 whose summed zeta has a numerator sharing
# the cyclotomic cofactor of a denominator factor: 1 + 11^-1 t of
# 1 - 11^-2 t^2 (zeta), and 1 + 11^-1 t + 11^-2 t^2 of 1 - 11^-3 t^3
# (zeta0).  Kept, the factor would report period 2 or 3 on the line -1.
JOB_COFACTOR_ZETA = """\
vars = x, y, z
prime = 11

[polys]
4*y*z^2 + 2*y^3 + 3*z^2 + 2*x^2
4*x^3 + z + 3*y + 2*x^2*y^2
"""

JOB_COFACTOR_ZETA0 = """\
vars = x, y, z
prime = 11

[polys]
4*x^3*z^2 + z + 2*y + 4*x^2
2*z^4 + 2*x^2*y*z + 3*x^3 + y^3 + 2*x*y*z^2 + 2*x^3*z
"""

JOB_BAD_POLY = """\
vars = x, y
prime = 5

[polys]
x^^2 + y
"""

JOB_ZERO_POLY = """\
vars = x, y
prime = 5

[polys]
x - x
"""

JOB_SEVEN_VARS = """\
vars = a, b, c, d, e, f, g
prime = 5

[polys]
a + b
a^2 + b^2 + c^2 + d^2 + e^2 + f^2 + g^2
"""

# A convenient system with 17 facet normals: the class enumeration has no
# cap on the facet count.
JOB_17_NORMALS = """\
vars = x, y, z
prime = 11
depth = 2
expsum_levels = 2

[polys]
x + y + z
x^17 + y^16 + z^15 + x^9*y + y^8*z + z^7*x + x^5*y^3 + y^5*z^3 + z^5*x^3 + x^2*y^2*z^2 + x*y^6*z + x^3*y*z^4
"""


# Globally degenerate at p = 5 but non-degenerate at the origin: the full
# engine refuses and zeta_origin succeeds.
JOB_ORIGIN_ONLY = """\
vars = x, y
prime = 5
depth = 2
expsum_levels = 2

[polys]
x - y
y^3 - 2*x*y + x
"""

# Every certificate holds and the head has good reduction, but its measure
# Z(1) = #V(F_3) / 3 is 1/3, not 1: Z = [(1/3) + (1/9) t^2] / [1 - 3^-1 t^2].
JOB_HEAD_MEASURE = """\
vars = x, y
prime = 3
depth = 3

[polys]
x^4 + 2*y^3 + x + x^3*y
2*x^4 + 2*y^2 + x^2*y^3
"""

# One variable at a 19-digit prime: the ray's slice is one point, the
# a = 0 scan would be a whole axis of p - 1 points.
JOB_ONE_VAR_HUGE_PRIME = """\
vars = x
prime = 1000000000000000003

[polys]
x^2 + x
"""

# Not convenient (x*y + x^3 has no pure power of y): both engines refuse.
JOB_NOT_CONVENIENT = """\
vars = x, y
prime = 5

[polys]
x + y
x*y + x^3
"""


def _write(tmp_path, text, name="job.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfig:
    def test_parse_roundtrip(self):
        cfg = parse_config(JOB_72)
        assert cfg.variables == ["x", "y"]
        assert cfg.polys == ["x^2 + y^2", "x^4 + y^4 + x*y"]
        assert cfg.prime == 5 and cfg.mode == "all" and cfg.oracle_depth == 3

    def test_missing_keys(self):
        from igusa.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_config("prime = 5\n[polys]\nx + y\n")
        with pytest.raises(ConfigError):
            parse_config("vars = x\nprime = 5\n")

    @pytest.mark.parametrize(
        "line, message",
        [("deph = 7", "line 4: unknown key 'deph'"), ("budgte = 10", "line 4: unknown key 'budgte'"),
         ("depth = 7", "line 4: key 'depth' given twice")],
    )
    def test_unknown_or_repeated_key_exit_1(self, tmp_path, capsys, line, message):
        # A misspelt key must not leave its setting at the default.
        text = JOB_71.replace("depth = 2", "depth = 2\n" + line)
        assert main(["zeta", "--input", _write(tmp_path, text)]) == 1
        detail = json.loads(capsys.readouterr().err)
        assert detail["error"] == "ConfigError" and message in detail["message"]

    @pytest.mark.parametrize("content", [None, b"vars = x, y\xff\n"], ids=["missing", "not-utf8"])
    def test_unreadable_job_file_exit_1(self, tmp_path, capsys, content):
        path = tmp_path / "job.cfg"
        if content is not None:
            path.write_bytes(content)
        assert main(["zeta", "--input", str(path)]) == 1
        detail = json.loads(capsys.readouterr().err)
        assert detail["error"] == "ConfigError" and str(path) in detail["message"]

    @pytest.mark.parametrize(
        "old, new, message",
        [("prime = 5", "prime 5", "line 2: expected key=value or [polys] block"),
         ("prime = 5\n", "", "missing 'prime' key"),
         ("depth = 3", "depth = three\nbudget = lots", "bad numeric value: invalid literal for int() with base 10: 'three'"),
         ("depth = 3", "depth = 3\nmode = zeta0",
          "line 4: unknown key 'mode'; the keys are vars, prime, depth, expsum_levels, budget, output"),
         ("depth = 3", "depth = 3\noutput = xml", "unknown output format 'xml'")],
        ids=["not-key-value", "no-prime", "bad-number", "mode-key", "unknown-output"],
    )
    def test_bad_job_file_exit_1(self, tmp_path, capsys, old, new, message):
        assert main(["zeta0", "--input", _write(tmp_path, JOB_72.replace(old, new))]) == 1
        detail = json.loads(capsys.readouterr().err)
        assert detail["error"] == "ConfigError" and detail["message"] == message

    def test_omitted_keys_take_jobconfig_defaults(self):
        cfg = parse_config("vars = x, y\nprime = 5\n[polys]\nx + y\nx^2 + y^2\n")
        assert cfg == JobConfig(["x", "y"], ["x + y", "x^2 + y^2"], 5)
        assert set(cfg.as_json()) == {
            "vars", "polys", "prime", "mode", "oracle_depth", "expsum_levels", "budget", "output"
        }

    def test_comments_ignored(self):
        cfg = parse_config("# hello\nvars = x, y\nprime = 7 # the prime\n[polys]\nx + y\nx^2+y^2\n")
        assert cfg.prime == 7


class TestRun:
    def test_zeta0_example_72(self):
        cfg = parse_config(JOB_72)
        cfg.mode = "zeta0"
        report, code = run(cfg)
        assert code == 0
        z = report["zeta"]
        assert z["mode"] == "origin"
        assert z["value"]["numerator"] == {"2": "8/5"}
        assert z["value"]["denominator"] == [{"a": 0, "b": 2, "mult": 1}]

    def test_poles_example_71(self):
        cfg = parse_config(JOB_71)
        cfg.mode = "poles"
        report, code = run(cfg)
        assert code == 0
        poles = report["poles"]
        cand_res = {line["re"] for line in poles["candidates"]["lines"]}
        assert cand_res == {"-1", "-3/8", "-1/3"}
        actual_res = {line["re"] for line in poles["actual"]}
        assert actual_res <= cand_res
        assert poles["beta_f"] == "-1/3"
        mult = {line["re"]: line["multiplicity"] for line in poles["actual"]}
        assert mult["-1/3"] == 1

    def test_check_mode_degenerate(self):
        cfg = parse_config(JOB_DEGENERATE)
        cfg.mode = "check"
        report, code = run(cfg)
        assert code == 2
        w = report["certificates"]["nondegenerate"]["witness"]
        assert w["rank"] == 0

    def test_congruence_and_poincare(self):
        cfg = parse_config(JOB_LINE)
        cfg.mode = "poincare"
        report, code = run(cfg)
        assert code == 0
        rows = report["oracle"]["poincare"]["rows"]
        assert all(row["match"] for row in rows)
        ns = report["oracle"]["congruence"]["N"]
        assert ns["0"] == "1" and ns["1"] == "1"

    def test_expsum_mode(self):
        cfg = parse_config(JOB_LINE)
        cfg.mode = "expsum"
        cfg.expsum_levels = 3
        report, code = run(cfg)
        assert code == 0
        rows = report["oracle"]["expsum"]["rows"]
        assert rows[0]["E"] == [1.0, 0.0]
        residuals = report["oracle"]["expsum"]["prop3_residuals"]
        assert all(r["residual"] < 1e-9 for r in residuals)

    @pytest.mark.parametrize("prime", [9, 2, 1, -5])
    def test_bad_prime_is_config_error(self, prime):
        from igusa.cli import ConfigError

        cfg = parse_config(JOB_72)
        cfg.prime = prime
        with pytest.raises(ConfigError, match="odd prime"):
            run(cfg)

    def test_unknown_mode_is_config_error(self):
        # The command sets the mode, so only an in-process caller can give a bad one.
        from igusa.cli import ConfigError

        cfg = parse_config(JOB_72)
        cfg.mode = "zeta1"
        with pytest.raises(ConfigError, match="unknown mode 'zeta1'"):
            run(cfg)

    @pytest.mark.parametrize(
        "field, value",
        [("oracle_depth", -1), ("oracle_depth", 0), ("expsum_levels", 0), ("expsum_levels", -2), ("budget", 0)],
    )
    def test_non_positive_limits_rejected_before_work(self, field, value, monkeypatch):
        import igusa.cli as cli_mod
        from igusa.cli import ConfigError

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was checked")

        monkeypatch.setattr(cli_mod.counting, "check_nondegenerate", no_work)
        cfg = parse_config(JOB_LINE)
        setattr(cfg, field, value)
        with pytest.raises(ConfigError, match="must be at least 1"):
            run(cfg)

    @pytest.mark.parametrize("mode", ["zeta", "zeta0", "all", "check"])
    def test_one_subdivision_per_job(self, mode, monkeypatch):
        # The certificates, the fan section and the engine share one dual
        # subdivision and its one triangulation.
        import igusa.fan as fan_mod
        import igusa.newton as newton_mod

        calls = {}
        for module, name in ((newton_mod, "system_polyhedron"), (fan_mod, "triangulate")):
            real = getattr(module, name)
            calls[name] = 0

            def shim(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, shim)
        cfg = parse_config(JOB_71)
        cfg.mode = mode
        cfg.expsum_levels = 2
        _, code = run(cfg)
        assert code == 0
        assert calls == {"system_polyhedron": 1, "triangulate": 1}

    @pytest.mark.parametrize("mode", ["zeta", "zeta0", "all"])
    def test_one_scan_per_face_system(self, mode, monkeypatch):
        # Every F_p grid scan of the certificates and counts starts a
        # product_chunks walk.  A job walks at most once per distinct face
        # system among the subdivision's directions and a = 0, however many
        # cones and certificates read them.  A face with one coefficient
        # prime to p has no torus zero: in the head it leaves no walk, as
        # the last face a walk of the head alone.  The linear head x + y - z
        # has good reduction without a walk.
        import igusa.counting as counting_mod
        from igusa.fan import dual_subdivision
        from igusa.polycore import PolySystem, face_function, parse_polynomial

        scans = []
        real = counting_mod.product_chunks
        monkeypatch.setattr(counting_mod, "product_chunks", lambda axes: scans.append(axes) or real(axes))
        cfg = parse_config(JOB_71)
        cfg.mode, cfg.prime, cfg.oracle_depth, cfg.expsum_levels = mode, 23, 1, 1
        _, code = run(cfg)
        assert code == 0
        sys_ = PolySystem(3, [parse_polynomial(text, cfg.variables) for text in cfg.polys])
        directions = [cone.interior_point() for cone in dual_subdivision(sys_).cones] + [(0, 0, 0)]
        face_systems = {tuple(tuple(sorted(face_function(f, a).terms.items())) for f in sys_.polys) for a in directions}
        monomial = [[sum(c % 23 != 0 for _, c in face) == 1 for face in system] for system in face_systems]
        full = sum(not any(m) for m in monomial)
        head_only = sum(m == [False, True] for m in monomial)
        assert (len(face_systems), full, head_only) == (20, 7, 4)
        assert len(scans) == full + head_only == 11

    @pytest.mark.parametrize(
        "variables,polys,prime,depth,points",
        [
            ("x, y, z", ["x + y - z", "x^8 + y^8 + z^8 + x^2*y^2*z^2"], 5, 3, 81_375),
            ("x, y", ["x^2 + y^2", "x^4 + y^4 + x*y"], 47, 2, 4_418),
            ("x, y", ["x^3 + y^3", "x^4 + y^4 + x*y"], 47, 2, 106_032),
            ("x, y", ["x^4 + y^4", "x^4 + y^4 + x*y"], 47, 2, 4_418),
        ],
    )
    def test_all_job_walks_each_tree_level_once(self, variables, polys, prime, depth, points, monkeypatch):
        # The congruence table, the exponential sums and the prop3 residual
        # of an `all` job read one walk of the oracle's lift tree, so the
        # points tested are each level's lifts once: sum |H_(m-1)| p^n.
        import igusa.oracle as oracle_mod
        from igusa.polycore import PolySystem, parse_polynomial

        names = variables.split(", ")
        fresh = PolySystem(len(names), [parse_polynomial(f, names) for f in polys])
        heads = [len(h[0]) for h, _ in oracle_mod._head_levels(fresh, prime, depth - 1, 10**9, "walk")]
        assert points == sum(heads) * prime ** len(names)
        tested = []
        real = oracle_mod.grid_zeros
        monkeypatch.setattr(oracle_mod, "grid_zeros", lambda fs, coords, m: tested.append(len(coords[0])) or real(fs, coords, m))
        job = f"vars = {variables}\nprime = {prime}\ndepth = {depth}\nexpsum_levels = {depth}\n[polys]\n" + "\n".join(polys)
        cfg = parse_config(job)
        cfg.mode = "all"
        _, code = run(cfg)
        assert code == 0 and sum(tested) == points

    @staticmethod
    def _run_zeta0(job):
        cfg = parse_config(job)
        cfg.mode = "zeta0"
        return run(cfg)

    def test_report_determinism(self):
        r1, _ = self._run_zeta0(JOB_72)
        r2, _ = self._run_zeta0(JOB_72)
        assert report_json(r1) == report_json(r2)

    def test_json_top_level_keys(self):
        report, _ = self._run_zeta0(JOB_72)
        assert set(report) == {"config", "certificates", "fan", "zeta", "poles", "oracle", "checks"}

    def test_numbers_are_exact_strings(self):
        report, _ = self._run_zeta0(JOB_72)
        blob = json.loads(report_json(report))
        for coeff in blob["zeta"]["value"]["numerator"].values():
            assert isinstance(coeff, str)

    def test_every_mode_produces_valid_json(self):
        for mode in ("zeta", "zeta0", "poles", "poincare", "expsum", "congruence", "check", "all"):
            cfg = parse_config(JOB_LINE)
            cfg.mode = mode
            cfg.expsum_levels = 2
            report, code = run(cfg)
            assert code == 0, mode
            blob = json.loads(report_json(report))
            assert set(blob) == {
                "config",
                "certificates",
                "fan",
                "zeta",
                "poles",
                "oracle",
                "checks",
            }, mode

    def test_oracle_mismatch_exit_3(self, monkeypatch):
        # Wire-level test of the mismatch path: feed the comparison a wrong
        # congruence count.
        import igusa.cli as cli_mod

        class _BadTable:
            def __init__(self, inner):
                self.depth = inner.depth
                self.counts = dict(inner.counts)
                self.counts[1] += 1

        real = cli_mod.oracle.congruence_table
        monkeypatch.setattr(
            cli_mod.oracle, "congruence_table", lambda *a, **k: _BadTable(real(*a, **k))
        )
        cfg = parse_config(JOB_LINE)
        cfg.mode = "poincare"
        report, code = run(cfg)
        assert code == 3
        assert any(c["name"] == "poincare_vs_congruence" and not c["passed"] for c in report["checks"])


class TestExitCode:
    """The checks alone decide the code: 3 if a pole or oracle comparison
    failed, else 2 if any check failed, else 0."""

    @staticmethod
    def _run(job, mode, **settings):
        cfg = parse_config(job)
        cfg.mode = mode
        for name, value in settings.items():
            setattr(cfg, name, value)
        report, code = run(cfg)
        return {c["name"] for c in report["checks"] if not c["passed"]}, code, report

    def test_pole_containment_exit_3(self, monkeypatch):
        import igusa.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_pole_containment_ok", lambda zr: False)
        failed, code, _ = self._run(JOB_71, "zeta")
        assert (failed, code) == ({"pole_containment"}, 3)

    def test_prop3_residual_exit_3(self, monkeypatch):
        import igusa.cli as cli_mod

        monkeypatch.setattr(cli_mod.oracle, "prop3_residual", lambda *args, **kwargs: 1.0)
        failed, code, _ = self._run(JOB_LINE, "expsum", expsum_levels=3)
        assert (failed, code) == ({"prop3_residual"}, 3)

    def test_mismatch_outranks_refusal(self, monkeypatch):
        # Good reduction fails at p = 5, so the Poincare series is refused
        # (2), but the failed pole comparison before it reads 3.
        import igusa.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_pole_containment_ok", lambda zr: False)
        failed, code, _ = self._run(JOB_72, "poincare")
        assert (failed, code) == ({"pole_containment", "poincare_available"}, 3)

    def test_zeta0_refused_exit_2(self):
        failed, code, report = self._run(JOB_NOT_CONVENIENT, "zeta0")
        assert (failed, code) == ({"zeta_origin_hypotheses"}, 2)
        assert report["zeta"] is None and report["certificates"]["convenient"]["ok"] is False

    def test_poles_both_engines_refused_exit_2(self):
        failed, code, report = self._run(JOB_NOT_CONVENIENT, "poles")
        assert (failed, code) == ({"zeta_full_hypotheses", "zeta_origin_hypotheses"}, 2)
        assert report["poles"]["actual"] is None
        assert [line["re"] for line in report["poles"]["candidates"]["lines"]] == ["-1/2", "-2/3", "-1"]


class TestShownZeta:
    """The engine runs only for the zeta function the report shows."""

    @staticmethod
    def _count_calls(monkeypatch):
        import igusa.oracle as oracle_mod
        import igusa.zeta as zeta_mod

        calls = {}
        for module, name in ((zeta_mod, "zeta_full"), (zeta_mod, "zeta_origin"), (oracle_mod, "congruence_table")):
            real = getattr(module, name)
            calls[name] = 0

            def shim(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, shim)
        return calls

    @staticmethod
    def _run(job, mode):
        cfg = parse_config(job)
        cfg.mode = mode
        return run(cfg)

    @pytest.mark.parametrize(
        "mode, full, origin", [("zeta0", 0, 1), ("zeta", 1, 0), ("poles", 1, 0), ("all", 1, 0)]
    )
    def test_engine_calls_per_mode(self, mode, full, origin, monkeypatch):
        calls = self._count_calls(monkeypatch)
        report, code = self._run(JOB_71, mode)
        assert code == 0
        assert (calls["zeta_full"], calls["zeta_origin"]) == (full, origin)
        assert report["zeta"]["mode"] == ("origin" if mode == "zeta0" else "full")

    @pytest.mark.parametrize("mode", ["poles", "all"])
    def test_origin_fallback_exits_2(self, mode, tmp_path, monkeypatch):
        calls = self._count_calls(monkeypatch)
        out_json = tmp_path / "report.json"
        assert main([mode, "--input", _write(tmp_path, JOB_ORIGIN_ONLY), "--json", str(out_json)]) == 2
        assert (calls["zeta_full"], calls["zeta_origin"]) == (1, 1)
        blob = json.loads(out_json.read_text())
        assert blob["zeta"]["mode"] == "origin"
        assert [c["name"] for c in blob["checks"] if not c["passed"]] == ["zeta_full_hypotheses"]

    @pytest.mark.parametrize("mode", ["expsum", "congruence"])
    def test_refused_full_engine_exits_2(self, mode):
        report, code = self._run(JOB_ORIGIN_ONLY, mode)
        assert code == 2
        assert report["zeta"] is None
        assert [c["name"] for c in report["checks"] if not c["passed"]] == ["zeta_full_hypotheses"]

    def test_refused_poincare_builds_no_table(self, monkeypatch):
        # Good reduction fails at p = 5, so the table would never be shown.
        calls = self._count_calls(monkeypatch)
        report, code = self._run(JOB_72, "poincare")
        assert code == 2
        assert calls["congruence_table"] == 0
        assert report["oracle"] is None
        assert report["checks"][-1] == {"name": "poincare_available", "passed": False, "detail": "good reduction fails"}

    def test_shown_sections_agree_across_modes(self):
        def shown(job, mode):
            report, _ = self._run(job, mode)
            return report["zeta"], report["poles"]

        assert shown(JOB_71, "zeta") == shown(JOB_71, "poles") == shown(JOB_71, "all")
        assert shown(JOB_ORIGIN_ONLY, "zeta0") == shown(JOB_ORIGIN_ONLY, "poles") == shown(JOB_ORIGIN_ONLY, "all")


class TestMain:
    def test_readme_job_exit_0(self, tmp_path):
        # Ex. 7.1 at p = 5 with exponential sums to m = 4: the head tree tests
        # 125 * 5^6 points at level 4, where the full grid had 5^12.
        job = JOB_71.replace("depth = 2", "depth = 3\nexpsum_levels = 4")
        assert main(["all", "--input", _write(tmp_path, job)]) == 0

    def test_cli_zeta0(self, tmp_path, capsys):
        path = _write(tmp_path, JOB_72)
        out_json = tmp_path / "report.json"
        code = main(["zeta0", "--input", path, "--json", str(out_json)])
        assert code == 0
        assert "zeta (origin)" in capsys.readouterr().out
        blob = json.loads(out_json.read_text())
        assert blob["config"]["mode"] == "zeta0"

    def test_cli_parse_error_exit_1(self, tmp_path, capsys):
        path = _write(tmp_path, JOB_BAD_POLY)
        code = main(["zeta", "--input", path])
        assert code == 1
        err = capsys.readouterr().err
        detail = json.loads(err)
        assert detail["error"] == "PolynomialSyntaxError"
        assert "position" in detail

    def test_dangling_star_is_parse_error_exit_1(self, tmp_path, capsys):
        # A trailing "*" is not dropped: the job is refused, not run on x^2 + y^2.
        code = main(["check", "--input", _write(tmp_path, JOB_72.replace("x^2 + y^2", "x^2 + y^2*"))])
        assert code == 1
        detail = json.loads(capsys.readouterr().err)
        assert detail["error"] == "PolynomialSyntaxError" and detail["position"] == 9

    @pytest.mark.parametrize(
        "args",
        [["check", "--input", "{job}", "--prime", "abc"], ["zeta", "--input", "{job}", "--depth", "1.5"], [],
         ["bogus", "--input", "{job}"], ["zeta"], ["zeta", "--input", "{job}", "--colour"]],
        ids=["prime-abc", "depth-1.5", "no-command", "unknown-command", "no-input", "unknown-flag"],
    )
    def test_bad_command_line_exit_1(self, tmp_path, capsys, args):
        # Exit 2 means "hypothesis rejected"; a bad argument is a config error.
        path = _write(tmp_path, JOB_72)
        assert main([a.format(job=path) for a in args]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("args", [["--help"], ["zeta", "--help"]])
    def test_help_exit_0(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: igusa")

    def test_cli_hypothesis_exit_2(self, tmp_path):
        path = _write(tmp_path, JOB_DEGENERATE)
        code = main(["check", "--input", path])
        assert code == 2

    def test_cli_witness_within_budget_exit_2(self, tmp_path):
        out_json = tmp_path / "report.json"
        code = main(["check", "--input", _write(tmp_path, JOB_CUSP_SQUARED), "--json", str(out_json)])
        assert code == 2
        w = json.loads(out_json.read_text())["certificates"]["nondegenerate"]["witness"]
        assert w == {"direction": [2, 3], "point": [1, 1], "rank": 0}

    def test_cli_zeta_on_degenerate_exit_2(self, tmp_path):
        # One polynomial (l = 1) reaches the engine, which refuses it as degenerate.
        path = _write(tmp_path, JOB_DEGENERATE)
        code = main(["zeta", "--input", path])
        assert code == 2

    def test_unwritable_json_path_exit_1(self, tmp_path, capsys):
        # One JSON line on stderr naming the path, not a traceback after the run.
        out_json = tmp_path / "missing" / "report.json"
        assert main(["zeta0", "--input", _write(tmp_path, JOB_72), "--json", str(out_json)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        detail = json.loads(captured.err)
        assert detail["error"] == "ConfigError" and str(out_json) in detail["message"]

    @pytest.mark.parametrize("prime", [5, 7])
    def test_cusp_all_exit_0(self, tmp_path, prime):
        # Igusa's zeta function of x^2 + y^3 (l = 1): poles -1 and -5/6,
        # the cusp's log-canonical threshold, checked against the oracles.
        out_json = tmp_path / "report.json"
        job = f"vars = x, y\nprime = {prime}\n[polys]\nx^2 + y^3\n"
        assert main(["all", "--input", _write(tmp_path, job), "--json", str(out_json)]) == 0
        blob = json.loads(out_json.read_text())
        assert blob["poles"]["actual"] == [
            {"re": "-1", "period": 1, "multiplicity": 1}, {"re": "-5/6", "period": 6, "multiplicity": 1}
        ]
        assert {c["name"] for c in blob["checks"] if c["passed"]} == {
            "pole_containment", "poincare_vs_congruence", "prop3_residual"
        }

    def test_json_output_on_stdout(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        path = _write(tmp_path, JOB_72.replace("depth = 3", "depth = 3\noutput = json"))
        assert main(["zeta0", "--input", path, "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert out == out_json.read_text()
        assert set(json.loads(out)) == {"config", "certificates", "fan", "zeta", "poles", "oracle", "checks"}

    def test_not_convenient_leaves_stderr_empty(self, tmp_path, capsys):
        # The report's certificates.convenient says it; nothing else does.
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(["all", "--input", _write(tmp_path, JOB_NOT_CONVENIENT)]) == 2
        assert record == []
        captured = capsys.readouterr()
        assert captured.err == "" and "convenient=False" in captured.out

    def test_prime_override(self, tmp_path, capsys):
        path = _write(tmp_path, JOB_72)
        code = main(["zeta0", "--input", path, "--prime", "7"])
        assert code == 0
        assert "p=7" in capsys.readouterr().out

    def test_budget_exit_4(self, tmp_path):
        text = JOB_71 + "budget = 10\n"
        # budget line must precede [polys]; rebuild properly
        text = JOB_71.replace("depth = 2", "depth = 2\nbudget = 10")
        path = _write(tmp_path, text)
        code = main(["zeta", "--input", path])
        assert code == 4

    @pytest.mark.parametrize("where", ["flag", "job"])
    def test_bad_prime_exit_1(self, tmp_path, capsys, where):
        if where == "flag":
            code = main(["zeta0", "--input", _write(tmp_path, JOB_72), "--prime", "9"])
        else:
            code = main(["zeta0", "--input", _write(tmp_path, JOB_72.replace("prime = 5", "prime = 9"))])
        assert code == 1
        detail = json.loads(capsys.readouterr().err)
        assert detail["error"] == "ConfigError"
        assert "odd prime" in detail["message"]

    def test_prime_past_exact_primality_exit_1(self, tmp_path, capsys):
        # Miller-Rabin to the fixed bases decides primality only below the bound.
        from igusa.polycore import MR_EXACT_BELOW

        assert main(["check", "--input", _write(tmp_path, JOB_71), "--prime", str(MR_EXACT_BELOW + 2)]) == 1
        detail = json.loads(capsys.readouterr().err)
        assert detail["error"] == "ConfigError" and str(MR_EXACT_BELOW) in detail["message"]

    @pytest.mark.parametrize(
        "args, job_line",
        [(["--depth", "0"], None), (["--depth", "-1"], None), ([], "depth = 0"), ([], "expsum_levels = 0"),
         ([], "budget = -3")],
    )
    def test_non_positive_limits_exit_1(self, tmp_path, capsys, args, job_line):
        text = JOB_LINE if job_line is None else JOB_LINE.replace("depth = 3", job_line)
        code = main(["all", "--input", _write(tmp_path, text), *args])
        assert code == 1
        detail = json.loads(capsys.readouterr().err)
        assert detail["error"] == "ConfigError"
        assert "must be at least 1" in detail["message"]

    @pytest.mark.parametrize(
        "job, message",
        [(JOB_ZERO_POLY, "polynomial 0 is zero"), (JOB_SEVEN_VARS, f"7 variables exceed the supported cap {MAX_DIMENSION}")],
        ids=["zero-poly", "seven-vars"],
    )
    def test_unsupported_system_exit_1(self, tmp_path, capsys, job, message):
        code = main(["check", "--input", _write(tmp_path, job)])
        assert code == 1
        detail = json.loads(capsys.readouterr().err)
        assert detail["error"] == "ConfigError" and detail["message"] == message

    @pytest.mark.parametrize("names, bad", [("x, y z", "y z"), ("x, 2y", "2y"), ("x, y^2", "y^2")])
    def test_unreadable_variable_name_exit_1(self, tmp_path, capsys, names, bad):
        # Named at the variable list, not as an unknown variable inside a polynomial.
        text = JOB_72.replace("vars = x, y", f"vars = {names}")
        assert main(["check", "--input", _write(tmp_path, text)]) == 1
        detail = json.loads(capsys.readouterr().err)
        assert detail["error"] == "ConfigError" and repr(bad) in detail["message"]

    @pytest.mark.parametrize(
        "job, mode, value, lines",
        [(JOB_COFACTOR_ZETA, "zeta", "[(128/121) + (84/1331)*t^1 + (8/1331)*t^2] / [(1 - 11^-1*t^1)^2]",
          [{"re": "-1", "period": 1, "multiplicity": 2}]),
         (JOB_COFACTOR_ZETA0, "zeta0", "[(10/1331)*t^3 + (-10/161051)*t^4] / [(1 - 11^-2*t^3)*(1 - 11^-1*t^1)]",
          [{"re": "-1", "period": 1, "multiplicity": 1}, {"re": "-2/3", "period": 3, "multiplicity": 1}])],
        ids=["zeta", "zeta0"],
    )
    def test_cyclotomic_cofactor_cancelled(self, tmp_path, job, mode, value, lines):
        out_json = tmp_path / "report.json"
        assert main([mode, "--input", _write(tmp_path, job), "--json", str(out_json)]) == 0
        blob = json.loads(out_json.read_text())
        assert blob["zeta"]["value"]["t_form"] == value
        assert blob["poles"]["actual"] == lines

    @pytest.mark.parametrize("mode", ["poincare", "all"])
    def test_head_measure_below_one_exit_0(self, tmp_path, mode):
        out_json = tmp_path / "report.json"
        assert main([mode, "--input", _write(tmp_path, JOB_HEAD_MEASURE), "--json", str(out_json)]) == 0
        rows = json.loads(out_json.read_text())["oracle"]["poincare"]["rows"]
        assert [row["engine"] for row in rows] == ["1", "1/3", "1/3", "1/9"]
        assert all(row["match"] for row in rows)

    @pytest.mark.parametrize("prime", ["1000000000000000003", "20000080000005503"])
    def test_one_variable_huge_prime_exit_4(self, tmp_path, capsys, prime):
        # Refused with one JSON line, not a traceback from allocating the axis.
        # The second p - 1 is 2 * 100000007 * 100000393: the one-point slice
        # factors nothing, so p - 1 is not trial-divided up to 10^8.
        job = JOB_ONE_VAR_HUGE_PRIME.replace("1000000000000000003", prime)
        assert main(["check", "--input", _write(tmp_path, job)]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ModulusOverflowError"

    def test_17_facet_normals_all_exit_0(self, tmp_path):
        out_json = tmp_path / "report.json"
        code = main(["all", "--input", _write(tmp_path, JOB_17_NORMALS), "--json", str(out_json)])
        assert code == 0
        blob = json.loads(out_json.read_text())
        assert len(blob["fan"]["skeleton"]) == 17 and blob["fan"]["cone_count"] == 91
        assert blob["oracle"]["congruence"]["N"] == {"0": "1", "1": "15", "2": "275"}
        assert any(c["name"] == "poincare_vs_congruence" and c["passed"] for c in blob["checks"])


# ---------------------------------------------------------------------------
# Pinned reports: a change to the report format updates these files
# ---------------------------------------------------------------------------

PINNED = Path(__file__).resolve().parent / "pinned"
FLOAT_TOL = 1e-9


def _leaf_diffs(expected, actual, path="$") -> list[str]:
    """Paths where two JSON documents differ: floats by more than FLOAT_TOL,
    any other leaf at all (type included)."""
    if type(expected) is float and type(actual) is float:
        return [] if abs(expected - actual) <= FLOAT_TOL else [path]
    if isinstance(expected, dict) and isinstance(actual, dict) and expected.keys() == actual.keys():
        return [d for k in expected for d in _leaf_diffs(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        return [d for i, (e, a) in enumerate(zip(expected, actual)) for d in _leaf_diffs(e, a, f"{path}[{i}]")]
    return [] if type(expected) is type(actual) and expected == actual else [path]


class TestPinnedReports:
    @pytest.mark.parametrize(
        "name,job,mode,code",
        [("line-all", JOB_LINE, "all", 0), ("degenerate-check", JOB_DEGENERATE, "check", 2),
         ("not-convenient-poles", JOB_NOT_CONVENIENT, "poles", 2),
         ("cofactor-zeta", JOB_COFACTOR_ZETA, "zeta", 0), ("head-measure-poincare", JOB_HEAD_MEASURE, "poincare", 0)],
    )
    def test_report_matches_pin(self, name, job, mode, code):
        # line-all has every section, the Poincare rows and the prop3
        # residual; degenerate-check a witness; not-convenient-poles
        # candidates only, with both engine refusals; cofactor-zeta a sum
        # that cancels a cyclotomic cofactor, with every cone's L and S;
        # head-measure-poincare the Poincare series from Z(1) = 1/3.
        config = parse_config(job)
        config.mode = mode
        report, exit_code = run(config)
        expected = json.loads((PINNED / f"{name}.json").read_text(encoding="utf-8"))
        assert _leaf_diffs(expected, json.loads(report_json(report))) == []
        assert exit_code == code

    def test_float_leaves_compare_within_tolerance(self):
        assert _leaf_diffs({"a": [1.0, "1/3"]}, {"a": [1.0 + 1e-12, "1/3"]}) == []
        assert _leaf_diffs({"a": [1.0, "1/3"]}, {"a": [1.0, "2/6"]}) == ["$.a[1]"]
        assert _leaf_diffs({"a": 1}, {"a": 1.0}) == ["$.a"]
