import csv
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from edgebalance import cli
from edgebalance.planar import Circle, chord_through_centroid, plan_excision
from edgebalance.report import RunReport, shape_digest
from edgebalance.svg import render_plan

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"type": "circle", "center": [0.0, 0.0], "radius": 1.0}))
    return str(path)


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(
        json.dumps(
            {
                "type": "regular_polygon",
                "n": 5,
                "circumradius": 1.0,
                "orientation": math.pi / 2.0,
            }
        )
    )
    return str(path)


class TestRunReport:
    @staticmethod
    def sample_report(**overrides):
        base = dict(
            command="excise --shape circle.json",
            shape_digest="ab" * 32,
            dimension=2,
            beta=0.5,
            scale_ratio=GOLDEN,
            tolerance=1e-12,
            balance_point=(0.2360679774997896, 0.0),
            polynomial_residual=1.1e-16,
            passed=True,
            elapsed_seconds=0.0123,
            composite_centroid=(0.2360679774997897, -1e-17),
            distance=1.3e-16,
            relative_distance=6.5e-17,
        )
        base.update(overrides)
        return RunReport(**base)

    def test_json_round_trip_is_exact(self):
        report = self.sample_report()
        assert RunReport.from_json(report.to_json()) == report

    def test_json_round_trip_with_mc_fields(self):
        report = self.sample_report(
            seed=42,
            samples=1_000_000,
            mc_centroid=(0.23601, 0.00003),
            mc_std_error=(0.0006, 0.0006),
            mc_accepted=485_101,
        )
        assert RunReport.from_json(report.to_json()) == report

    def test_csv_is_lossless_for_numeric_fields(self):
        report = self.sample_report()
        header, row = list(csv.reader(io.StringIO(report.to_csv())))
        record = dict(zip(header, row))
        assert float(record["scale_ratio"]) == report.scale_ratio
        assert float(record["distance"]) == report.distance
        point = tuple(float(x) for x in record["balance_point"].split())
        assert point == report.balance_point

    def test_text_skips_absent_fields(self):
        text = self.sample_report().to_text()
        assert "scale_ratio" in text
        assert "mc_centroid" not in text

    def test_csv_bytes(self):
        assert self.sample_report().to_csv() == (
            "command,shape_digest,dimension,beta,scale_ratio,tolerance,balance_point,"
            "polynomial_residual,passed,elapsed_seconds,composite_centroid,distance,"
            "relative_distance,seed,samples,mc_centroid,mc_std_error,mc_accepted\r\n"
            "excise --shape circle.json," + "ab" * 32 + ",2,0.5,1.618033988749895,1e-12,"
            "0.2360679774997896 0.0,1.1e-16,True,0.0123,0.2360679774997897 -1e-17,1.3e-16,"
            "6.5e-17,,,,,\r\n"
        )

    def test_text_bytes(self):
        assert self.sample_report().to_text() == (
            "command excise --shape circle.json\n"
            "shape_digest " + "ab" * 32 + "\n"
            "dimension 2\n"
            "beta 0.5\n"
            "scale_ratio 1.618033988749895\n"
            "tolerance 1e-12\n"
            "balance_point 0.2360679774997896 0.0\n"
            "polynomial_residual 1.1e-16\n"
            "passed True\n"
            "elapsed_seconds 0.0123\n"
            "composite_centroid 0.2360679774997897 -1e-17\n"
            "distance 1.3e-16\n"
            "relative_distance 6.5e-17"
        )

    def test_digest_is_stable_under_key_order(self):
        a = {"type": "circle", "center": [0.0, 0.0], "radius": 1.0}
        b = {"radius": 1.0, "center": [0.0, 0.0], "type": "circle"}
        assert shape_digest(a) == shape_digest(b)
        assert len(shape_digest(a)) == 64


class TestConstantCommand:
    def test_golden_value_printed(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "2")
        assert code == 0
        assert out.splitlines()[0] == "1.618033988749895"

    def test_tribonacci_json(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(1.839286755, abs=1e-8)

    def test_bad_order_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "constant", "0")
        assert code == 2
        assert "k must be" in err


class TestTableCommand:
    def test_four_decimal_text_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k-max", "4")
        assert code == 0
        lines = out.splitlines()
        assert "1.0000" in lines[1]
        assert "1.6180" in lines[2]
        assert "1.8393" in lines[3]
        assert "1.9276" in lines[4]

    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k-max", "1")
        assert code == 0
        assert len(out.splitlines()) == 2  # header plus one row

    def test_json_rows_increase_and_cross_check(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k-max", "12", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        values = [row["value"] for row in rows]
        assert values == sorted(values)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(row["agreement_gap"] < 1e-9 for row in rows)

    def test_csv_full_precision(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k-max", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert float(rows[2][1]) == pytest.approx(GOLDEN, abs=1e-15)


class TestSeqCommand:
    def test_fibonacci(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "2", "--seeds", "1,1", "--count", "9")
        assert code == 0
        assert out.splitlines()[0] == "1 1 2 3 5 8 13 21 34"

    def test_doubling_preset(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "4", "--seeds", "doubling", "--count", "9")
        assert code == 0
        assert out.splitlines()[0] == "0 0 0 1 1 2 4 8 16"

    def test_all_zero_seeds_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "seq", "3", "--seeds", "0,0,0")
        assert code == 2
        assert "zero" in err

    def test_malformed_seeds_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "seq", "2", "--seeds", "1,x")
        assert code == 2

    def test_count_above_the_term_limit_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "seq", "2", "--count", "10001")
        assert code == 2
        assert out == ""
        assert "--count is capped at 10000, got 10001" in err

    def test_ratio_beyond_a_float_exits_two(self, capsys):
        # term 2 over term 1 is (10**309 + 1) / 1, an exact quotient beyond any float
        seeds = "1" + "0" * 309 + ",1"
        code, out, err = run_cli(capsys, "seq", "2", "--seeds", seeds, "--count", "3")
        assert code == 2
        assert out == ""
        assert err == "error: term 2 divided by term 1 overflows a float\n"

    def test_ratios_line(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "2", "--seeds", "1,1", "--count", "4")
        ratios = out.splitlines()[1].split()
        assert ratios[0] == "-"
        assert float(ratios[1]) == 1.0
        assert float(ratios[3]) == 1.5


# stdout of the number commands, byte for byte, in each output format
GOLDEN_STDOUT = {
    ("constant 2", "text"): "1.618033988749895\nresidual 1.1102230246251565e-16\n",
    ("constant 2", "csv"): (
        "k,value,residual,physical\r\n2,1.618033988749895,1.1102230246251565e-16,True\r\n"
    ),
    ("constant 2", "json"): (
        '{"k": 2, "value": 1.618033988749895, "residual": 1.1102230246251565e-16, '
        '"physical": true}\n'
    ),
    ("table --k-max 3", "text"): (
        "  k      value   gap_to_two  seq_ratio   agreement\n"
        "  1     1.0000   1.0000e+00     1.0000  0.0000e+00\n"
        "  2     1.6180   3.8197e-01     1.6180  9.4147e-14\n"
        "  3     1.8393   1.6071e-01     1.8393  1.3167e-13\n"
    ),
    ("table --k-max 3", "csv"): (
        "k,value,gap_to_two,sequence_ratio,agreement_gap\r\n"
        "1,1.0,1.0,1.0,0.0\r\n"
        "2,1.618033988749895,0.38196601125010515,1.618033988749989,9.414691248821327e-14\r\n"
        "3,1.8392867552141612,0.16071324478583884,1.8392867552142929,1.3167245072054357e-13\r\n"
    ),
    ("table --k-max 3", "json"): (
        '[{"k": 1, "value": 1.0, "gap_to_two": 1.0, "sequence_ratio": 1.0, "agreement_gap": 0.0}, '
        '{"k": 2, "value": 1.618033988749895, "gap_to_two": 0.38196601125010515, '
        '"sequence_ratio": 1.618033988749989, "agreement_gap": 9.414691248821327e-14}, '
        '{"k": 3, "value": 1.8392867552141612, "gap_to_two": 0.16071324478583884, '
        '"sequence_ratio": 1.8392867552142929, "agreement_gap": 1.3167245072054357e-13}]\n'
    ),
    ("seq 3 --count 6", "text"): "1 1 1 3 5 9\n- 1.0 1.0 3.0 1.6666666666666667 1.8\n",
    ("seq 3 --count 6", "csv"): (
        "index,term,ratio\r\n0,1,\r\n1,1,1.0\r\n2,1,1.0\r\n3,3,3.0\r\n"
        "4,5,1.6666666666666667\r\n5,9,1.8\r\n"
    ),
    ("seq 3 --count 6", "json"): (
        '{"k": 3, "terms": [1, 1, 1, 3, 5, 9], '
        '"ratios": [null, 1.0, 1.0, 3.0, 1.6666666666666667, 1.8]}\n'
    ),
    ("seq 4 --seeds doubling --count 6", "text"): "0 0 0 1 1 2\n- - - - 1.0 2.0\n",
    ("seq 4 --seeds doubling --count 6", "csv"): (
        "index,term,ratio\r\n0,0,\r\n1,0,\r\n2,0,\r\n3,1,\r\n4,1,1.0\r\n5,2,2.0\r\n"
    ),
    ("seq 4 --seeds doubling --count 6", "json"): (
        '{"k": 4, "terms": [0, 0, 0, 1, 1, 2], "ratios": [null, null, null, null, 1.0, 2.0], '
        '"doubling_span": [5, 5]}\n'
    ),
}


@pytest.mark.parametrize("command, fmt", list(GOLDEN_STDOUT))
def test_number_commands_print_golden_bytes(capsys, command, fmt):
    code, out, err = run_cli(capsys, *command.split(), "--format", fmt)
    assert code == 0
    assert err == ""
    assert out == GOLDEN_STDOUT[command, fmt]


class TestExciseCommand:
    def test_circle_auto_golden(self, capsys, circle_file):
        code, out, _ = run_cli(capsys, "excise", "--shape", circle_file, "--format", "json")
        assert code == 0
        report = RunReport.from_json(out)
        assert report.passed
        assert report.scale_ratio == pytest.approx(GOLDEN, abs=1e-12)
        assert report.beta == 0.5
        assert report.relative_distance < 1e-12

    def test_pentagon_auto_finds_balanced_chord(self, capsys, pentagon_file):
        code, out, _ = run_cli(capsys, "excise", "--shape", pentagon_file, "--format", "json")
        assert code == 0
        report = RunReport.from_json(out)
        assert report.passed
        assert abs(report.beta - 0.5) <= 1e-12
        assert report.scale_ratio == pytest.approx(GOLDEN, abs=1e-11)

    def test_triangle_vertex_chord_exits_one(self, capsys, tmp_path):
        path = tmp_path / "triangle.json"
        path.write_text(
            json.dumps(
                {
                    "type": "regular_polygon",
                    "n": 3,
                    "circumradius": 1.0,
                    "orientation": math.pi / 2.0,
                }
            )
        )
        code, _, err = run_cli(
            capsys, "excise", "--shape", str(path), "--theta", repr(-math.pi / 2.0)
        )
        assert code == 1
        assert "physicality" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "excise", "--shape", "/no/such/file.json")
        assert code == 2
        assert "cannot read" in err

    def test_invalid_shape_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "blob"}))
        code, _, _ = run_cli(capsys, "excise", "--shape", str(path))
        assert code == 2

    def test_mc_verification_deterministic(self, capsys, circle_file):
        args = (
            "excise", "--shape", circle_file, "--verify", "mc",
            "--samples", "100000", "--seed", "9", "--format", "json",
        )
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        a = RunReport.from_json(out_a)
        b = RunReport.from_json(out_b)
        assert a.mc_centroid == b.mc_centroid
        assert a.mc_accepted == b.mc_accepted
        assert a.seed == 9 and a.samples == 100000

    def test_both_verification_modes(self, capsys, circle_file):
        code, out, _ = run_cli(
            capsys, "excise", "--shape", circle_file, "--verify", "both",
            "--samples", "100000", "--format", "json",
        )
        assert code == 0
        report = RunReport.from_json(out)
        assert report.distance is not None
        assert report.mc_centroid is not None

    def test_report_json_round_trip_from_run(self, capsys, circle_file):
        _, out, _ = run_cli(capsys, "excise", "--shape", circle_file, "--format", "json")
        report = RunReport.from_json(out)
        assert RunReport.from_json(report.to_json()) == report


class TestExciseKdCommand:
    def test_ball_three_dims(self, capsys, tmp_path):
        path = tmp_path / "ball.json"
        path.write_text(json.dumps({"type": "hyperball", "center": [0, 0, 0], "radius": 1.0}))
        code, out, _ = run_cli(
            capsys, "excise-kd", "--shape", str(path), "--o=-1,0,0", "--format", "json"
        )
        assert code == 0
        report = RunReport.from_json(out)
        assert report.passed
        assert report.scale_ratio == pytest.approx(1.8392867552141612, abs=1e-12)

    def test_cube_five_dims_corner(self, capsys, tmp_path):
        path = tmp_path / "cube.json"
        path.write_text(
            json.dumps({"type": "hypercube", "min_corner": [0, 0, 0, 0, 0], "side": 1.0})
        )
        code, out, _ = run_cli(
            capsys, "excise-kd", "--shape", str(path), "--o", "0,0,0,0,0", "--format", "json",
        )
        assert code == 0
        report = RunReport.from_json(out)
        assert report.scale_ratio == pytest.approx(1.9659, abs=5e-4)

    def test_direction_is_not_an_option(self, capsys, tmp_path):
        # the chord runs from the tangency point through the centroid: nothing to choose
        path = tmp_path / "ball.json"
        path.write_text(json.dumps({"type": "hyperball", "center": [0, 0, 0], "radius": 1.0}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["excise-kd", "--shape", str(path), "--o=-1,0,0", "--dir", "1,0,0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dir" in capsys.readouterr().err

    @pytest.mark.parametrize("k", range(2, 65))
    def test_symmetric_plan_has_the_order_k_constant(self, capsys, tmp_path, k):
        # the chord is built from the centroid, so a ball's or a cube's beta is
        # 1/2 and its scale ratio the value `constant k` prints, bit for bit
        import numpy as np

        from edgebalance.ndim import shape_kd_from_dict

        code, out, _ = run_cli(capsys, "constant", str(k), "--format", "json")
        assert code == 0
        value = json.loads(out)["value"]
        rng = np.random.default_rng(700 + k)
        corner, size = rng.uniform(-1.0, 1.0, k).tolist(), float(rng.uniform(0.5, 2.0))
        for shape in ({"type": "hyperball", "center": corner, "radius": size},
                      {"type": "hypercube", "min_corner": corner, "side": size}):
            body = shape_kd_from_dict(shape)
            c, u = np.asarray(body.centroid()), rng.standard_normal(k)
            u /= np.linalg.norm(u)
            o = c + body.exit_parameter(c, u) * u
            path = tmp_path / f"{shape['type']}.json"
            path.write_text(json.dumps(shape))
            code, out, err = run_cli(
                capsys, "excise-kd", "--shape", str(path), "--o=" + ",".join(map(repr, o.tolist())),
                "--format", "json",
            )
            assert code == 0, err
            report = json.loads(out)
            assert report["beta"] == 0.5
            assert report["scale_ratio"] == value

    def test_rod_exits_one(self, capsys, tmp_path):
        path = tmp_path / "rod.json"
        path.write_text(json.dumps({"type": "hyperball", "center": [0.0], "radius": 1.0}))
        code, _, err = run_cli(capsys, "excise-kd", "--shape", str(path), "--o=-1")
        assert code == 1
        assert "physicality" in err

    def test_mc_verification(self, capsys, tmp_path):
        path = tmp_path / "ball.json"
        path.write_text(json.dumps({"type": "hyperball", "center": [0, 0, 0], "radius": 1.0}))
        code, out, _ = run_cli(
            capsys, "excise-kd", "--shape", str(path), "--o=-1,0,0",
            "--verify", "mc", "--samples", "200000", "--format", "json",
        )
        assert code == 0
        assert RunReport.from_json(out).mc_accepted > 0

    def test_both_verification_modes(self, capsys, tmp_path):
        path = tmp_path / "ball.json"
        path.write_text(json.dumps({"type": "hyperball", "center": [0, 0, 0], "radius": 1.0}))
        code, out, _ = run_cli(
            capsys, "excise-kd", "--shape", str(path), "--o=-1,0,0",
            "--verify", "both", "--samples", "200000", "--format", "json",
        )
        assert code == 0
        report = RunReport.from_json(out)
        assert report.passed
        assert report.relative_distance < 1e-12
        assert report.composite_centroid is not None
        assert len(report.mc_centroid) == len(report.mc_std_error) == 3
        assert report.mc_accepted > 0
        assert (report.seed, report.samples) == (42, 200000)


class TestMonteCarloVerdict:
    def test_too_few_accepted_points_is_inconclusive(self, capsys, tmp_path):
        # this 6-simplex's box is mostly empty: 1 of 1e6 draws lands in the
        # body less the cavity, and a standard error of inf bounds nothing
        import numpy as np

        from edgebalance.ndim import Simplex, balanced_boundary_point

        vertices = np.random.default_rng(3).standard_normal((7, 6)).tolist()
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps({"type": "simplex", "vertices": vertices}))
        tangent = balanced_boundary_point(Simplex(vertices=tuple(map(tuple, vertices))))
        code, out, err = run_cli(
            capsys, "excise-kd", "--shape", str(path), "--o=" + ",".join(map(repr, tangent)),
            "--verify", "mc", "--samples", "1000000", "--seed", "1", "--format", "json",
        )
        report = RunReport.from_json(out)
        assert 0 < report.mc_accepted < cli.MC_MIN_ACCEPTED
        assert not report.passed
        assert code == 1
        assert "inconclusive" in err and "verification failed" not in err

    def test_a_circle_near_the_top_of_binary64_verifies(self, capsys, tmp_path):
        # a million squared offsets from this circle's box overflow unless they
        # are summed scaled by a power of two
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"type": "circle", "center": [0, 0], "radius": 1e153}))
        code, out, err = run_cli(capsys, "excise", "--shape", str(path), "--verify", "mc", "--format", "json")
        assert code == 0, err
        report = RunReport.from_json(out)
        assert report.passed and all(map(math.isfinite, report.mc_std_error))

    def test_a_ball_whose_box_overflows_verifies(self, capsys, tmp_path):
        # the measure of this 10-ball is about 1e306, the volume of its box
        # beyond binary64: exit 0 with no RuntimeWarning (raised as an error here)
        path = tmp_path / "ball10.json"
        path.write_text(json.dumps({"type": "hyperball", "center": [0] * 10, "radius": 3.6e30}))
        code, out, err = run_cli(
            capsys, "excise-kd", "--shape", str(path), "--o=-3.6e30" + ",0" * 9, "--verify", "mc",
            "--format", "json",
        )
        assert code == 0, err
        report = RunReport.from_json(out)
        assert report.passed and report.mc_accepted >= cli.MC_MIN_ACCEPTED

    def test_bound_is_four_sigma_in_the_plane_and_holds_the_rate_above(self):
        from statistics import NormalDist

        normal = NormalDist()
        assert cli._mc_bound(1) == cli._mc_bound(2) == 4.0
        bounds = [cli._mc_bound(k) for k in range(2, 65)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        plane_rate = 4.0 * normal.cdf(-4.0)
        for k, z in enumerate(bounds, start=2):
            assert 2.0 * k * normal.cdf(-z) == pytest.approx(plane_rate, rel=1e-6)


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [["constant", "3", "--seed", "1"], ["table", "--samples", "5"], ["seq", "2", "--tol", "1e-3"]],
    )
    def test_a_flag_the_command_does_not_read_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "command", [["table"], ["excise"], ["excise", "--theta", "0.3"], ["excise-kd", "--o=-1,0"]]
    )
    def test_tol_that_is_not_finite_and_positive_exits_two(self, capsys, circle_file, command, tol):
        shape = [] if command == ["table"] else ["--shape", circle_file]
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, *shape, "--tol", tol])
        assert exc.value.code == 2
        assert "argument --tol: must be finite and > 0" in capsys.readouterr().err

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.DOTALL).group(1)
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [words for words in lines if words]
        assert commands
        parser = cli.build_parser()
        for words in commands:
            assert words[0] == "edgebalance"
            parser.parse_args(words[1:])


class TestSvg:
    def test_cli_writes_svg(self, capsys, circle_file, tmp_path):
        out_path = tmp_path / "figure.svg"
        code, _, _ = run_cli(
            capsys, "excise", "--shape", circle_file, "--svg", str(out_path)
        )
        assert code == 0
        content = out_path.read_text()
        assert content.startswith("<svg")
        for label in (">O<", ">C<", ">P<", ">Q<", "C&#8242;"):
            assert label in content
        assert "stroke-dasharray" in content  # dashed cavity

    def test_render_is_deterministic(self):
        circle = Circle(center=(0.0, 0.0), radius=1.0)
        plan = plan_excision(circle, chord_through_centroid(circle, 0.0))
        assert render_plan(plan) == render_plan(plan)

    def test_polygon_rendering(self, capsys, pentagon_file, tmp_path):
        out_path = tmp_path / "pentagon.svg"
        code, _, _ = run_cli(
            capsys, "excise", "--shape", pentagon_file, "--svg", str(out_path)
        )
        assert code == 0
        assert "<polygon" in out_path.read_text()
