import importlib
import json
import math

import pytest

from netcontrol.cli import main
from netcontrol.elpgm import ElpgmConfig, elpgm_optimize
from netcontrol.graph import generate_er, parse_edge_list, serialize_edge_list

FIG8 = "1 2\n2 3\n3 4\n4 5\n6 7\n7 8\n8 9\n9 10\n11 12\n12 13\n13 11\n1 3\n14\n"
# A = [[-1000, 0], [1000, 1000]]: driving node 0 to steer node 1 takes
# e^(1000 t_f) terms, past the float range from t_f = 0.355 on
OVERFLOW = "0 0 -1000\n0 1 1000\n1 1 1000\n"


def _strict_json(text):
    """text parsed as JSON without Infinity, -Infinity or NaN."""
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))


@pytest.fixture
def fig8_file(tmp_path):
    path = tmp_path / "fig8.txt"
    path.write_text(FIG8)
    return str(path)


class TestGen:
    def test_er_writes_expected_count(self, tmp_path):
        out = tmp_path / "er.txt"
        assert main(["gen", "er", "--n", "1000", "--mu", "4", "--seed", "7", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        edges = [l for l in lines if len(l.split()) >= 2]
        assert len(edges) == 2000

    def test_er_infeasible_exit_code(self, capsys):
        assert main(["gen", "er", "--n", "10", "--mu", "30"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_ba_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen", "ba", "--n", "100", "--m", "3", "--seed", "7", "--out", str(a)])
        main(["gen", "ba", "--n", "100", "--m", "3", "--seed", "7", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_usage_error_exit_code(self):
        assert main(["gen", "er", "--n", "10"]) == 1  # missing --mu


class TestCurve:
    def test_chain_of_four(self, tmp_path, capsys):
        graph = tmp_path / "chain.txt"
        graph.write_text("0 1\n1 2\n2 3\n")
        assert main(["curve", str(graph)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "M,rmax,frac_controllable,frac_drivers_normalized"
        assert out[1] == "1,4,1,1"
        assert len(out) == 2

    def test_edgeless_three(self, tmp_path, capsys):
        graph = tmp_path / "iso.txt"
        graph.write_text("0\n1\n2\n")
        assert main(["curve", str(graph)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows == ["1,1,0.333333,0.333333", "2,2,0.666667,0.666667", "3,3,1,1"]

    def test_json_format(self, tmp_path, capsys):
        graph = tmp_path / "chain.txt"
        graph.write_text("0 1\n")
        assert main(["curve", str(graph), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rmax"] == 2

    def test_missing_file(self, capsys):
        assert main(["curve", "/nonexistent/graph.txt"]) == 1


class TestPlace:
    def test_edcp_worked_example(self, fig8_file, tmp_path):
        out = tmp_path / "placement.json"
        code = main(["place", fig8_file, "--algo", "edcp", "-M", "4", "-R", "12", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert {tuple(seg) for seg in payload["segments"]} == {
            (1, 2, 3), (4, 5), (6, 7, 8, 9), (11, 12, 13)
        }
        assert sorted(payload["drivers"]) == [1, 4, 6, 11]

    def test_elpgm_single_node(self, tmp_path, capsys):
        graph = tmp_path / "one.txt"
        graph.write_text("0\n")
        assert main(["place", str(graph), "--algo", "elpgm", "-M", "1", "-R", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["drivers"] == [0]
        assert payload["controlled"] == [0]
        assert payload["E_exact"] == pytest.approx(0.5)

    def test_r_larger_than_graph(self, fig8_file):
        assert main(["place", fig8_file, "-M", "4", "-R", "20"]) == 2

    def test_m_larger_than_r(self, fig8_file):
        assert main(["place", fig8_file, "-M", "5", "-R", "4"]) == 2

    @pytest.mark.parametrize("algo,tf", [("edcp", "nan"), ("edcp", "inf"), ("elpgm", "nan"), ("elpgm", "inf")])
    def test_nonfinite_horizon(self, fig8_file, capsys, algo, tf):
        assert main(["place", fig8_file, "--algo", algo, "-M", "4", "-R", "12", "--tf", tf]) == 1
        assert "t_f" in capsys.readouterr().err

    def test_chain_past_float_range(self, tmp_path):
        # a 90-node segment's chain estimate overflows a float: the estimate
        # is written as null (strict JSON has no Infinity), where the command
        # used to die of an OverflowError
        graph, out = tmp_path / "chain100.txt", tmp_path / "p.json"
        graph.write_text("".join(f"{i} {i + 1}\n" for i in range(99)))
        assert main(["place", str(graph), "-M", "1", "-R", "90", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
        assert len(payload["drivers"]) == 1
        assert len(set(payload["controlled"])) == 90
        assert payload["E_estimate"] is None

    def test_fraction_resolution(self, fig8_file, tmp_path):
        out = tmp_path / "p.json"
        assert main(["place", fig8_file, "-M", "4", "--fraction", "0.85", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["controlled"]) == 12  # ceil(0.85 * 14)

    def test_fraction_rounds_the_decimal_as_written(self, tmp_path):
        # 0.07 * 100 is 7.000000000000001 in binary floats, which controlled 8 nodes
        graph, out = tmp_path / "er.txt", tmp_path / "p.json"
        assert main(["gen", "er", "--n", "100", "--mu", "6", "--seed", "0", "--out", str(graph)]) == 0
        assert main(["place", str(graph), "-M", "2", "--fraction", "0.07", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["controlled"]) == 7

    @pytest.mark.parametrize("size, message", [
        (["--fraction", "1.5"], "fraction '1.5' is not a number in (0, 1]"),
        (["--fraction", "1/2"], "fraction '1/2' is not a number in (0, 1]"),
        (["--fraction", "1e-999999999"], "fraction '1e-999999999' is not a number in (0, 1]"),
        (["--fraction", "1.00000000000000000001"],
         "fraction '1.00000000000000000001' is not a number in (0, 1]"),
        ([], "one of the arguments -R --fraction is required"),
        (["-R", "12", "--fraction", "0.5"], "not allowed with argument -R"),
    ], ids=["fraction-1.5", "fraction-ratio", "fraction-underflow", "fraction-above-1", "no-size",
            "both-sizes"])
    def test_size_options_are_usage_errors(self, fig8_file, tmp_path, capsys, size, message):
        out = tmp_path / "p.json"
        assert main(["place", fig8_file, "-M", "4", *size, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, m, r, seed, t_f", [
        (serialize_edge_list(generate_er(20, 3.0, 11)), 3, 10, 3, 2.0),
        ("0 1 180\n1 0 180\n1 2 1\n", 1, 2, 0, 0.01),
    ], ids=["unweighted", "weighted"])
    def test_elpgm_places_on_the_realized_adjacency(self, tmp_path, text, m, r, seed, t_f):
        # the command's one request carries g.realized_adjacency(), so place
        # writes what elpgm_optimize returns on that matrix
        graph, out = tmp_path / "g.txt", tmp_path / "p.json"
        graph.write_text(text)
        assert main(["place", str(graph), "--algo", "elpgm", "-M", str(m), "-R", str(r), "--seed", str(seed),
                     "--tf", str(t_f), "--out", str(out)]) == 0
        g = parse_edge_list(text)
        placement, cost = elpgm_optimize(g.realized_adjacency(), m, r, ElpgmConfig(seed=seed, t_f=t_f))
        ext = g.internal_to_external()
        payload = _strict_json(out.read_text())
        assert payload["drivers"] == [ext[v] for v in placement.drivers]
        assert payload["controlled"] == [ext[v] for v in placement.controlled]
        assert payload["E_exact"] == cost

    @pytest.mark.parametrize("algo", ["edcp", "elpgm"])
    def test_structural_refusal_is_infeasible(self, tmp_path, capsys, algo):
        # rmax(1) = 1 < 3 on three isolated nodes: both algorithms refuse alike
        graph = tmp_path / "iso.txt"
        graph.write_text("0\n1\n2\n")
        assert main(["place", str(graph), "--algo", algo, "-M", "1", "-R", "3"]) == 2
        assert "netcontrol: infeasible: " in capsys.readouterr().err


class TestVerify:
    def test_edcp_output_verifies(self, fig8_file, tmp_path, capsys):
        placement = tmp_path / "p.json"
        main(["place", fig8_file, "-M", "4", "-R", "12", "--out", str(placement)])
        assert main(["verify", fig8_file, str(placement)]) == 0
        out = capsys.readouterr().out
        assert "controllable: true" in out
        residual = float(out.split("residual:")[1].strip())
        assert residual <= 1e-6

    def test_duplicate_driver_rejected(self, fig8_file, tmp_path):
        # a file that names a node twice is malformed input, not a refusal
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"drivers": [1, 1], "controlled": [1, 2]}))
        assert main(["verify", fig8_file, str(bad)]) == 1

    def test_malformed_placement(self, fig8_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nodes": [1]}))
        assert main(["verify", fig8_file, str(bad)]) == 1

    @pytest.mark.parametrize("payload, key", [
        ({"drivers": "12", "controlled": "34"}, "drivers"),
        ({"drivers": [1.7], "controlled": [1, 2]}, "drivers"),
        ({"drivers": [True], "controlled": [1, 2]}, "drivers"),
        ({"drivers": ["1"], "controlled": [1, 2]}, "drivers"),
        ({"drivers": [], "controlled": [1, 2]}, "drivers"),
        ({"drivers": [1], "controlled": []}, "controlled"),
        ({"drivers": [1], "controlled": [1, None]}, "controlled"),
    ], ids=["string", "float", "bool", "string-id", "no-drivers", "no-controlled", "null-id"])
    def test_placement_read_strictly(self, fig8_file, tmp_path, capsys, payload, key):
        placement, out = tmp_path / "p.json", tmp_path / "report.txt"
        placement.write_text(json.dumps(payload))
        assert main(["verify", fig8_file, str(placement), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"bad placement file: {key} must be a non-empty list of integer node ids" in err
        assert not out.exists()

    def test_wrong_direction_not_controllable(self, tmp_path, capsys):
        graph = tmp_path / "chain.txt"
        graph.write_text("0 1\n")
        placement = tmp_path / "p.json"
        placement.write_text(json.dumps({"drivers": [1], "controlled": [0]}))
        assert main(["verify", str(graph), str(placement)]) == 2
        assert "controllable: false" in capsys.readouterr().out

    def test_json_rank_refusal_has_no_condition(self, tmp_path, capsys):
        graph = tmp_path / "chain.txt"
        graph.write_text("0 1\n")
        placement = tmp_path / "p.json"
        placement.write_text(json.dumps({"drivers": [1], "controlled": [0]}))
        assert main(["verify", str(graph), str(placement), "--format", "json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report == {"controllable": False, "cost": None, "residual": None}

    def test_json_conditioning_refusal_reports_condition(self, tmp_path, capsys):
        # a 10-node chain driven from its head is output controllable, but
        # cond(C W C^T) for all ten outputs is far past CONDITION_LIMIT
        graph = tmp_path / "chain.txt"
        graph.write_text("".join(f"{i} {i + 1}\n" for i in range(9)))
        placement = tmp_path / "p.json"
        placement.write_text(json.dumps({"drivers": [0], "controlled": list(range(10))}))
        assert main(["verify", str(graph), str(placement), "--format", "json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["controllable"] is False
        assert report["cost"] is None and report["residual"] is None
        assert report["condition"] >= 1e12

    @pytest.mark.parametrize("graph_text, controlled, tf", [
        (OVERFLOW, [1], "0.355"),  # E = inf: it verified, with residual 5.9e148
        (OVERFLOW, [1], "0.358"),  # W holds inf: it wrote "condition": Infinity
        (OVERFLOW, [1], "0.36"),  # W holds NaN: it failed with "SVD did not converge"
        ("0 1\n1 2\n2 3\n3 4\n", [0, 1, 2, 3, 4], "1e-60"),  # finite, but cond(C W C^T) = inf
    ], ids=["cost-inf", "gramian-inf", "gramian-nan", "condition-inf"])
    def test_past_float_range_refused_in_strict_json(self, tmp_path, capsys, graph_text, controlled, tf):
        graph, placement = tmp_path / "g.txt", tmp_path / "p.json"
        graph.write_text(graph_text)
        placement.write_text(json.dumps({"drivers": [0], "controlled": controlled}))
        assert main(["verify", str(graph), str(placement), "--tf", tf, "--format", "json"]) == 2
        report = _strict_json(capsys.readouterr().out)
        assert report["controllable"] is False
        assert report["cost"] is None and report["residual"] is None
        assert report.get("condition") is None

    def test_numeric_failure_exits_3(self, fig8_file, tmp_path, monkeypatch, capsys):
        # numpy's LinAlgError is a ValueError, and was reported as a refusal (exit 2)
        import numpy as np

        placement = tmp_path / "p.json"
        main(["place", fig8_file, "-M", "4", "-R", "12", "--out", str(placement)])

        def solve(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", solve)
        assert main(["verify", fig8_file, str(placement)]) == 3
        assert "netcontrol: numeric failure: Singular matrix" in capsys.readouterr().err

    def test_placement_evaluated_once(self, fig8_file, tmp_path, monkeypatch, capsys):
        import netcontrol.lti as lti

        placement = tmp_path / "p.json"
        main(["place", fig8_file, "-M", "4", "-R", "12", "--out", str(placement)])
        calls = {"output_controllable": 0, "_van_loan": 0, "expm": 0}
        for name in calls:
            def counted(*args, _name=name, _orig=getattr(lti, name), **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(lti, name, counted)
        assert main(["verify", fig8_file, str(placement)]) == 0
        # one rank test and one Van Loan kernel call (the Gramian and
        # e^(A t_f)) serve both the cost and the drive, whose input samples
        # take 7 exponentials
        assert calls["output_controllable"] == 1
        assert calls["_van_loan"] == 1
        assert calls["expm"] == 7
        assert "controllable: true" in capsys.readouterr().out

    @pytest.mark.parametrize("tf", ["nan", "inf"])
    def test_nonfinite_horizon(self, fig8_file, tmp_path, capsys, tf):
        placement = tmp_path / "p.json"
        main(["place", fig8_file, "-M", "4", "-R", "12", "--out", str(placement)])
        assert main(["verify", fig8_file, str(placement), "--tf", tf]) == 1
        assert "t_f" in capsys.readouterr().err

    def test_json_report(self, fig8_file, tmp_path, capsys):
        placement = tmp_path / "p.json"
        main(["place", fig8_file, "-M", "4", "-R", "12", "--out", str(placement)])
        assert main(["verify", fig8_file, str(placement), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["controllable"] is True
        assert report["residual"] <= 1e-6


class TestGraphJson:
    def test_json_graph_reads_like_its_edge_list(self, fig8_file, tmp_path, capsys):
        json_file = tmp_path / "fig8.json"
        json_file.write_text(parse_edge_list(FIG8).to_json())

        def outputs(graph):
            texts = []
            for argv in (["curve", graph], ["place", graph, "-M", "4", "-R", "12"],
                         ["place", graph, "--algo", "elpgm", "-M", "4", "-R", "12"]):
                assert main(argv) == 0
                texts.append(capsys.readouterr().out)
            placement = tmp_path / "p.json"
            placement.write_text(texts[1])
            assert main(["verify", graph, str(placement), "--format", "json"]) == 0
            return texts + [capsys.readouterr().out]

        assert outputs(str(json_file)) == outputs(fig8_file)

    def test_id_map_not_onto_nodes_is_usage_error(self, tmp_path, capsys):
        # refused on reading, before any placement work
        graph = tmp_path / "bad.json"
        graph.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]], "id_map": {"10": 0}}')
        out = tmp_path / "p.json"
        assert main(["place", str(graph), "-M", "1", "-R", "3", "--out", str(out)]) == 1
        assert "id_map" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_external_id_is_usage_error(self, tmp_path, capsys):
        # read as node -3, which serialize_edge_list wrote and parse_edge_list refused
        graph = tmp_path / "bad.json"
        graph.write_text('{"n": 2, "edges": [[0, 1, 1.0]], "id_map": {"-3": 0, "5": 1}}')
        out = tmp_path / "curve.csv"
        assert main(["curve", str(graph), "--out", str(out)]) == 1
        assert "node ids must be nonnegative, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"n": -1, "edges": []}', '{"n": 2.7, "edges": [[0, 1, 1.0]]}', '{"n": true, "edges": []}',
    ], ids=["negative", "fractional", "boolean"])
    def test_bad_n_is_usage_error(self, tmp_path, capsys, text):
        # refused on reading, before any work
        graph = tmp_path / "bad.json"
        graph.write_text(text)
        out = tmp_path / "curve.csv"
        assert main(["curve", str(graph), "--out", str(out)]) == 1
        assert "n must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"n": 2, "edges": [[0.7, 1, 1.0]]}', '{"n": 2, "edges": [[0, true, 1.0]]}',
        '{"n": 2, "edges": [[0, 1, 1.0]], "id_map": {"5": 0, "6": 1.0}}',
    ], ids=["fractional-endpoint", "boolean-endpoint", "fractional-id-map-value"])
    def test_non_integer_node_id_is_usage_error(self, tmp_path, capsys, text):
        # 0.7 used to read as node 0, and place exited 0
        graph = tmp_path / "bad.json"
        graph.write_text(text)
        out = tmp_path / "p.json"
        assert main(["place", str(graph), "-M", "1", "-R", "2", "--out", str(out)]) == 1
        assert "must be a JSON integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, text", [
        ("nan.txt", "0 1 nan\n1 2\n"), ("inf.txt", "0 1\n1 2 -inf\n"),
        ("nan.json", '{"n": 3, "edges": [[0, 1, NaN], [1, 2, 1.0]]}'),
        ("inf.json", '{"n": 3, "edges": [[0, 1, 1.0], [1, 2, Infinity]]}'),
        ("bool.json", '{"n": 3, "edges": [[0, 1, true], [1, 2, 1.0]]}'),
    ])
    @pytest.mark.parametrize("command", [["curve"], ["place", "-M", "1", "-R", "3"]])
    def test_bad_weight_is_usage_error(self, tmp_path, capsys, name, text, command):
        # refused on reading; place used to exit 2 after the flow had run,
        # curve exited 0, and a weight true read as 1.0
        graph = tmp_path / name
        graph.write_text(text)
        out = tmp_path / "out"
        assert main([command[0], str(graph), *command[1:], "--out", str(out)]) == 1
        assert "weight" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--network", "er", "--n", "40", "--mu", "4", "-M", "8",
            "--fractions", "0.5,0.75", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "network,n,edges,fraction,M,algorithm,E,wall_time_s"
        assert len(rows) == 1 + 2 * 2  # fractions x {edcp, naive}
        for row in rows[1:]:
            fields = row.split(",")
            assert fields[1] == "40"
            assert fields[5] in ("edcp", "naive")
            float(fields[6].replace("E", "e"))  # parseable cost

    def test_ba_grid(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--network", "ba", "--n", "30", "--m-attach", "2", "-M", "6",
                     "--fractions", "0.5,1", "--seed", "3", "--out", str(out)]) == 0
        rows = [row.split(",") for row in out.read_text().strip().splitlines()[1:]]
        assert [row[:6] for row in rows] == [
            ["ba-n30-m2", "30", "56", fraction, "6", algo]
            for fraction in ("0.5", "1") for algo in ("edcp", "naive")
        ]

    def test_deterministic(self, tmp_path):
        args = ["bench", "--network", "er", "--n", "30", "--mu", "3", "-M", "6",
                "--fractions", "0.6", "--seed", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        # wall-time column differs; compare everything else
        strip = lambda text: [row.rsplit(",", 1)[0] for row in text.splitlines()]
        assert strip(a.read_text()) == strip(b.read_text())

    def test_infeasible_cells_are_nan(self, tmp_path, capsys):
        # rmax(2) = 28 < 30 here: EDCP and ELPGM both refuse; neither may abort the table
        out = tmp_path / "bench.csv"
        code = main(["bench", "--network", "er", "--n", "30", "-M", "2", "--algos", "edcp,elpgm",
                     "--fractions", "1.0", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "network,n,edges,fraction,M,algorithm,E,wall_time_s"
        assert [row.split(",")[5:7] for row in rows[1:]] == [["edcp", "nan"], ["elpgm", "nan"]]
        err = capsys.readouterr().err
        assert " edcp: " in err and " elpgm: " in err

    def test_estimate_cells_say_so(self, tmp_path, capsys):
        # every exact cost of this full-control cell is out of numeric range:
        # E stays the chain estimate, and stderr says so for both cells
        out = tmp_path / "bench.csv"
        code = main(["bench", "--network", "er", "--n", "30", "-M", "4", "--algos", "edcp,naive",
                     "--fractions", "1.0", "--out", str(out)])
        assert code == 0
        rows = [row.split(",") for row in out.read_text().strip().splitlines()[1:]]
        assert [row[5:7] for row in rows] == [["edcp", "1.62E55"], ["naive", "1.62E55"]]
        err = capsys.readouterr().err
        for algo in ("edcp", "naive"):
            assert f"er-n30-mu6 fraction 1 {algo}: E is the chain estimate" in err

    def test_more_drivers_than_nodes_is_nan(self, tmp_path, capsys):
        # at fraction 0.1, R = 4 < M = 8: those cells are refused, not the table
        out = tmp_path / "bench.csv"
        code = main(["bench", "--network", "er", "--n", "40", "-M", "8", "--algos", "edcp,naive",
                     "--fractions", "0.1,0.5", "--out", str(out)])
        assert code == 0
        rows = [row.split(",") for row in out.read_text().strip().splitlines()[1:]]
        assert [row[3:7:2] for row in rows] == [["0.1", "edcp"], ["0.1", "naive"], ["0.5", "edcp"], ["0.5", "naive"]]
        assert [row[6] for row in rows[:2]] == ["nan", "nan"]
        assert all(row[6] != "nan" for row in rows[2:])
        assert "M = 8 exceeds R = 4" in capsys.readouterr().err

    def test_unknown_algorithm_rejected_before_any_cell(self, tmp_path, capsys, monkeypatch):
        import netcontrol.cli as cli

        ran = []
        monkeypatch.setattr(cli._Request, "place", lambda *args, **kwargs: ran.append(args))
        out = tmp_path / "bench.csv"
        code = main(["bench", "--network", "er", "--n", "40", "-M", "8", "--algos", "edcp,foo",
                     "--fractions", "0.5", "--out", str(out)])
        assert code == 1
        assert ran == [] and not out.exists()
        assert "unknown algorithm 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize("fractions, bad", [("0.5,1.5", "1.5"), ("0.5,abc", "abc"), ("0,0.5", "0")])
    def test_bad_fraction_rejected_before_any_cell(self, tmp_path, capsys, monkeypatch, fractions, bad):
        import netcontrol.cli as cli

        ran = []
        monkeypatch.setattr(cli._Request, "place", lambda *args, **kwargs: ran.append(args))
        out = tmp_path / "bench.csv"
        code = main(["bench", "--network", "er", "--n", "20", "-M", "2",
                     "--fractions", fractions, "--out", str(out)])
        assert code == 1
        assert ran == [] and not out.exists()
        assert f"fraction {bad!r} is not a number in (0, 1]" in capsys.readouterr().err

    def test_one_solver_per_grid(self, tmp_path, monkeypatch):
        # every cell of a grid, ELPGM's too, places on one request: one
        # graph, one realized adjacency and one solver; a request per cell
        # built 14 solvers for the EDCP and naive cells of these 7 fractions,
        # and ELPGM's own requests 8 of each.  ELPGM's EDCP start is the EDCP
        # cell's kept result: 14 results, where each ELPGM cell placed again (21)
        import netcontrol.flow
        import netcontrol.graph

        edcp_module = importlib.import_module("netcontrol.edcp")  # `netcontrol.edcp` is the function
        built = {"solver": 0, "graph": 0, "adjacency": 0, "result": 0}

        def counted(cls, name, key):
            real = getattr(cls, name)

            def wrapper(*args):
                built[key] += 1
                return real(*args)

            monkeypatch.setattr(cls, name, wrapper)

        counted(netcontrol.flow.SufficiencySolver, "__init__", "solver")
        counted(netcontrol.graph.DirectedGraph, "__post_init__", "graph")
        counted(netcontrol.graph.DirectedGraph, "realized_adjacency", "adjacency")
        counted(edcp_module._Request, "result", "result")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--network", "er", "--n", "40", "-M", "8", "--algos", "edcp,naive,elpgm",
                     "--fractions", "0.4,0.5,0.6,0.7,0.8,0.9,1.0", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 22
        assert built == {"solver": 1, "graph": 1, "adjacency": 1, "result": 14}

    def test_cells_past_float_range_are_written(self, tmp_path, capsys):
        # at t_f = 400 every exact cost is past the float range: the cells
        # report the chain estimate, where the whole run exited 2 with
        # "SVD did not converge"
        out = tmp_path / "bench.csv"
        assert main(["bench", "--network", "er", "--n", "20", "--mu", "3", "-M", "3", "--tf", "400",
                     "--fractions", "0.5,1.0", "--out", str(out)]) == 0
        rows = [row.split(",") for row in out.read_text().strip().splitlines()[1:]]
        assert [row[3:7:2] for row in rows] == [["0.5", "edcp"], ["0.5", "naive"], ["1", "edcp"], ["1", "naive"]]
        assert all(math.isfinite(float(row[6].replace("E", "e"))) for row in rows[:2])
        err = capsys.readouterr().err
        for algo in ("edcp", "naive"):
            assert f"er-n20-mu3 fraction 0.5 {algo}: E is the chain estimate" in err

    def test_edcp_beats_naive_in_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        main(["bench", "--network", "er", "--n", "40", "--mu", "4", "-M", "8",
              "--fractions", "0.5,0.75", "--seed", "1", "--out", str(out)])
        rows = out.read_text().strip().splitlines()[1:]
        costs = {}
        for row in rows:
            fields = row.split(",")
            costs[(fields[3], fields[5])] = float(fields[6].replace("E", "e"))
        for frac in ("0.5", "0.75"):
            assert costs[(frac, "edcp")] <= costs[(frac, "naive")]


@pytest.mark.parametrize("args, message", [
    (["place", "{graph}", "-M", "0", "-R", "10"], "count '0' is not an integer >= 1"),
    (["place", "{graph}", "-M", "-1", "-R", "10"], "count '-1' is not an integer >= 1"),
    (["place", "{graph}", "-M", "3", "-R", "0"], "count '0' is not an integer >= 1"),
    (["place", "{graph}", "--algo", "elpgm", "-M", "3", "-R", "10", "--seed", "-1"],
     "seed '-1' is not an integer >= 0"),
    (["verify", "{graph}", "{placement}", "--seed", "-1"], "seed '-1' is not an integer >= 0"),
    (["gen", "er", "--n", "0", "--mu", "3"], "count '0' is not an integer >= 1"),
    (["gen", "er", "--n", "10", "--mu", "-1"], "degree '-1' is not a finite number >= 0"),
    (["gen", "ba", "--n", "10", "--m", "0"], "count '0' is not an integer >= 1"),
    (["bench", "--network", "er", "--n", "0", "-M", "2"], "count '0' is not an integer >= 1"),
    (["bench", "--network", "ba", "--n", "20", "--m-attach", "0", "-M", "2"],
     "count '0' is not an integer >= 1"),
    (["bench", "--network", "er", "--n", "20", "-M", "0", "--fractions", "0.5"],
     "count '0' is not an integer >= 1"),
    (["bench", "--network", "er", "--n", "20", "-M", "2", "--algos", "elpgm", "--seed", "-1"],
     "seed '-1' is not an integer >= 0"),
    (["place", "{graph}", "-M", "3", "-R", "10", "--tf", "nan"], "t_f 'nan' is not a positive finite number"),
    (["place", "{graph}", "-M", "3", "-R", "10", "--tf", "0"], "t_f '0' is not a positive finite number"),
    (["verify", "{graph}", "{placement}", "--tf", "nan"], "t_f 'nan' is not a positive finite number"),
    (["verify", "{graph}", "{placement}", "--tf", "0"], "t_f '0' is not a positive finite number"),
    (["bench", "--network", "er", "--n", "20", "-M", "2", "--tf", "nan"],
     "t_f 'nan' is not a positive finite number"),
    (["bench", "--network", "er", "--n", "20", "-M", "2", "--tf", "0"],
     "t_f '0' is not a positive finite number"),
], ids=["place-M0", "place-M-1", "place-R0", "place-seed-1", "verify-seed-1", "gen-er-n0",
        "gen-er-mu-1", "gen-ba-m0", "bench-n0", "bench-m-attach0", "bench-M0", "bench-seed-1",
        "place-tf-nan", "place-tf0", "verify-tf-nan", "verify-tf0", "bench-tf-nan", "bench-tf0"])
def test_out_of_range_option_is_usage_error(tmp_path, capsys, args, message):
    graph, placement, out = tmp_path / "g.txt", tmp_path / "p.json", tmp_path / "out"
    graph.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n9 10\n")
    placement.write_text('{"drivers": [0], "controlled": [0, 1]}')
    argv = [arg.format(graph=graph, placement=placement) for arg in args]
    assert main([*argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestScientificFormat:
    def test_cost_formatting(self):
        from netcontrol.cli import _format_cost

        assert _format_cost(23500.0) == "2.35E04"
        assert _format_cost(0.5) == "0.5"
        assert _format_cost(1.1e7) == "1.10E07"
        assert (_format_cost(math.inf), _format_cost(math.nan)) == ("inf", "nan")


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy alone: a fresh interpreter that imports the CLI
    # (and with it every netcontrol module) must not load scipy
    import os
    import subprocess
    import sys
    from pathlib import Path

    import netcontrol

    src = str(Path(netcontrol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, netcontrol.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
