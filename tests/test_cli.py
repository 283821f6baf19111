import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from markovgibbs import TransitionMatrix, cli, rigidity
from markovgibbs.cli import main

from conftest import SINGULAR_NEWTON_LOG_VALUES

README = Path(__file__).resolve().parents[1] / "README.md"
DEMO = Path(__file__).resolve().parents[1] / "demos" / "snr_example.json"

FOUR_MATRIX = {"n": 4, "rows": [[0, 1, 1, 1], [1, 0, 0, 1], [0, 1, 0, 0], [0, 1, 0, 0]]}

Q_EXACT = [
    [None, "1/5", "1", "2/5"],
    ["1", None, None, "3/5"],
    [None, "3/10", None, None],
    [None, "1/2", None, None],
]

FIXTURE_Q = {
    (1, 2): 0.2,
    (3, 2): 0.3,
    (4, 2): 0.5,
    (1, 4): 0.4,
    (2, 4): 0.6,
    (2, 1): 1.0,
    (1, 3): 1.0,
}


def log_values_grid():
    grid = [[None] * 4 for _ in range(4)]
    for (i, j), v in FIXTURE_Q.items():
        grid[i - 1][j - 1] = math.log(v)
    return grid


@pytest.fixture
def exact_file(tmp_path):
    path = tmp_path / "exact.json"
    path.write_text(json.dumps({"matrix": FOUR_MATRIX, "potential": {"q_matrix": Q_EXACT}}))
    return str(path)


@pytest.fixture
def log_file(tmp_path):
    path = tmp_path / "log.json"
    path.write_text(json.dumps({"matrix": FOUR_MATRIX, "potential": {"log_values": log_values_grid()}}))
    return str(path)


@pytest.fixture
def matrix_only_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"matrix": FOUR_MATRIX}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


class TestShiftCommands:
    def test_info(self, capsys, matrix_only_file):
        code, doc, _ = run(capsys, "shift", "info", "--input", matrix_only_file)
        assert code == 0
        assert doc["primitive"] is True
        assert doc["in_degrees"] == [1, 3, 1, 2]
        assert doc["branch_symbols"] == [2, 4]
        assert len(doc["branch_edges"]) == 5

    def test_cycles(self, capsys, matrix_only_file):
        code, doc, _ = run(capsys, "shift", "cycles", "--input", matrix_only_file)
        assert code == 0
        assert doc["cycles"] == [[1, 2, 1], [1, 3, 2, 1], [1, 4, 2, 1], [2, 4, 2]]
        assert doc["intersection_condition"]["holds"] is True

    def test_amalgamate(self, capsys, matrix_only_file):
        code, doc, _ = run(capsys, "shift", "amalgamate", "--input", matrix_only_file)
        assert code == 0
        assert doc["fixed_point"] is True
        assert doc["merge_map"] == {"1": 1, "2": 2, "3": 3, "4": 4}

    def test_autos(self, capsys, matrix_only_file):
        code, doc, _ = run(capsys, "shift", "autos", "--input", matrix_only_file)
        assert code == 0
        assert doc["status"] == "trivial"
        assert doc["permutations"] == [[1, 2, 3, 4]]

    def test_non_primitive_matrix_exits_2(self, capsys, tmp_path):
        path = tmp_path / "swap.json"
        path.write_text(json.dumps({"matrix": {"n": 2, "rows": [[0, 1], [1, 0]]}}))
        code, doc, err = run(capsys, "shift", "info", "--input", str(path))
        assert code == 2
        assert doc is None
        assert "primitive" in err


class TestInputDiagnostics:
    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"matrix": [}')
        code, doc, err = run(capsys, "shift", "info", "--input", str(path))
        assert code == 2
        assert "line 1" in err

    def test_bad_potential_cell(self, capsys, tmp_path):
        grid = log_values_grid()
        grid[0][0] = 0.5  # not an edge
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": FOUR_MATRIX, "potential": {"log_values": grid}}))
        code, _, err = run(capsys, "gibbs", "entropy", "--input", str(path))
        assert code == 2
        assert "log_values[0][0]" in err

    def test_missing_potential(self, capsys, matrix_only_file):
        code, _, err = run(capsys, "gibbs", "entropy", "--input", matrix_only_file)
        assert code == 2
        assert "potential" in err

    def test_rational_mode_rejects_floats(self, capsys, tmp_path):
        q = [row[:] for row in Q_EXACT]
        q[0][1] = 0.2
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"matrix": FOUR_MATRIX, "potential": {"q_matrix": q}}))
        code, _, err = run(capsys, "gibbs", "entropy", "--input", str(path))
        assert code == 2
        assert "q_matrix[0][1]" in err


class TestGibbsCommands:
    def test_normalize(self, capsys, log_file):
        code, doc, _ = run(capsys, "gibbs", "normalize", "--input", log_file)
        assert code == 0
        assert doc["perron_root"] == pytest.approx(1.0, abs=1e-12)
        assert doc["stationary"] == pytest.approx([0.28, 0.4, 0.12, 0.2], abs=1e-12)
        assert doc["stochastic_matrix"][2][1] == pytest.approx(0.3, abs=1e-14)

    def test_measure(self, capsys, exact_file):
        code, doc, _ = run(capsys, "gibbs", "measure", "--input", exact_file, "--word", "132")
        assert code == 0
        assert doc["word"] == [1, 3, 2]
        assert doc["measure"] == pytest.approx(0.12, abs=1e-14)

    def test_entropy(self, capsys, exact_file):
        code, doc, _ = run(capsys, "gibbs", "entropy", "--input", exact_file)
        expected = -(
            0.4 * (0.2 * math.log(0.2) + 0.3 * math.log(0.3) + 0.5 * math.log(0.5))
            + 0.2 * (0.4 * math.log(0.4) + 0.6 * math.log(0.6))
        )
        assert code == 0
        assert doc["entropy"] == pytest.approx(expected, abs=1e-12)

    def test_cohomology_of_pair(self, capsys, exact_file, tmp_path):
        code, twin_doc, _ = run(capsys, "rigidity", "counterexample", "--input", exact_file)
        assert code == 0
        twin_path = tmp_path / "twin.json"
        twin_path.write_text(json.dumps({"matrix": twin_doc["matrix"], "potential": twin_doc["potential"]}))
        code, doc, _ = run(capsys, "gibbs", "cohomology", "--input", exact_file, "--other", str(twin_path))
        assert code == 0
        assert doc["cohomologous"] is False
        assert doc["witness_cycle"] == [1, 3, 2, 1]


class TestSpectrumCommands:
    def test_curve_uniform_full_shift(self, capsys, tmp_path):
        grid = [[math.log(0.5)] * 2 for _ in range(2)]
        path = tmp_path / "full2.json"
        path.write_text(
            json.dumps(
                {
                    "matrix": {"n": 2, "rows": [[1, 1], [1, 1]]},
                    "potential": {"log_values": grid},
                }
            )
        )
        table = tmp_path / "curve.csv"
        code, doc, _ = run(
            capsys,
            "spectrum", "curve", "--input", str(path),
            "--qmin", "-3", "--qmax", "3", "--steps", "25", "--table", str(table),
        )
        assert code == 0
        assert len(doc["samples"]) == 25
        for sample in doc["samples"]:
            assert sample["alpha"] == pytest.approx(math.log(2), abs=1e-11)
            assert sample["entropy"] == pytest.approx(math.log(2), abs=1e-11)
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "q,alpha,entropy"
        assert len(lines) == 26

    def test_curve_writes_no_table_unless_asked(self, capsys, log_file, tmp_path, monkeypatch):
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code, doc, _ = run(capsys, "spectrum", "curve", "--input", log_file, "--steps", "5")
        assert code == 0
        assert len(doc["samples"]) == 5
        assert doc["table"] is None
        assert list(workdir.iterdir()) == []

    def test_compare_exact_twin(self, capsys, exact_file, tmp_path):
        _, twin_doc, _ = run(capsys, "rigidity", "counterexample", "--input", exact_file)
        twin_path = tmp_path / "twin.json"
        twin_path.write_text(json.dumps({"matrix": twin_doc["matrix"], "potential": twin_doc["potential"]}))
        code, doc, _ = run(capsys, "spectrum", "compare", "--input", exact_file, "--other", str(twin_path))
        assert code == 0
        assert doc["equal"] is True
        assert doc["mode"] == "exact"
        assert doc["max_deviation"] == 0.0

    def test_compare_numeric_is_labeled(self, capsys, log_file, tmp_path):
        _, twin_doc, _ = run(capsys, "rigidity", "counterexample", "--input", log_file)
        twin_path = tmp_path / "twin.json"
        twin_path.write_text(json.dumps({"matrix": twin_doc["matrix"], "potential": twin_doc["potential"]}))
        code, doc, _ = run(capsys, "spectrum", "compare", "--input", log_file, "--other", str(twin_path))
        assert code == 0
        assert doc["equal"] is True
        assert doc["mode"] == "numerical"
        assert "note" in doc

    def test_compare_mixed_inputs_is_numerical(self, capsys, exact_file, log_file):
        for first, second in ((exact_file, log_file), (log_file, exact_file)):
            code, doc, _ = run(capsys, "spectrum", "compare", "--input", first, "--other", second)
            assert code == 0
            assert doc["equal"] is True
            assert doc["mode"] == "numerical"
            assert doc["note"] == "numerical mode compares coefficients on a finite grid; heuristic"

    def test_compare_tol_sets_the_bound(self, capsys, log_file, tmp_path):
        grid = log_values_grid()
        grid[0][1] += 1e-6  # edge (1, 2)
        shifted = tmp_path / "shifted.json"
        shifted.write_text(json.dumps({"matrix": FOUR_MATRIX, "potential": {"log_values": grid}}))
        for tol, equal in (("1e-10", False), ("1", True)):
            code, doc, _ = run(
                capsys, "spectrum", "compare", "--input", log_file, "--other", str(shifted), "--tol", tol
            )
            assert code == 0
            assert doc["equal"] is equal
            assert 1e-7 < doc["max_deviation"] < 1e-5

    def test_compare_rejects_invalid_tol(self, capsys, log_file):
        base = ("spectrum", "compare", "--input", log_file, "--other", log_file)
        assert main([*base, "--tol", "1e-10"]) == 0
        assert capsys.readouterr().out == (
            '{"command": "spectrum compare", "equal": true, "max_deviation": 0.0, "mode": "numerical", '
            '"note": "numerical mode compares coefficients on a finite grid; heuristic"}\n'
        )
        for tol in ("nan", "-1", "inf"):
            code, doc, err = run(capsys, *base, "--tol", tol)
            assert code == 2
            assert doc is None
            assert "finite and non-negative" in err


class TestRigidityCommands:
    def test_check_g(self, capsys, exact_file):
        code, doc, _ = run(capsys, "rigidity", "check-g", "--input", exact_file)
        assert code == 0
        assert doc["distinct"] is True and doc["collision"] is None
        assert doc["mode"] == "exact"

    def test_sample_g(self, capsys, matrix_only_file):
        code, doc, _ = run(
            capsys, "rigidity", "sample-g", "--input", matrix_only_file,
            "--samples", "50", "--seed", "0",
        )
        assert code == 0
        assert doc["fraction"] == 1.0

    def test_reconstruct(self, capsys, exact_file):
        code, doc, _ = run(
            capsys, "rigidity", "reconstruct", "--input", exact_file, "--values", "1.0,0.3"
        )
        assert code == 0
        assert doc["word"] == [1, 3, 2]

    def test_reconstruct_no_match_exits_2(self, capsys, exact_file):
        code, _, err = run(
            capsys, "rigidity", "reconstruct", "--input", exact_file, "--values", "0.7"
        )
        assert code == 2
        assert "match" in err

    def test_conjugacy_self_identity(self, capsys, exact_file):
        code, doc, _ = run(
            capsys, "rigidity", "conjugacy", "--input", exact_file, "--other", exact_file
        )
        assert code == 0
        assert doc["code"]["identity"] is True
        assert doc["code"]["window"] == 5

    def test_conjugacy_obstruction_exits_4(self, capsys, exact_file, tmp_path):
        _, twin_doc, _ = run(capsys, "rigidity", "counterexample", "--input", exact_file)
        twin_path = tmp_path / "twin.json"
        twin_path.write_text(json.dumps({"matrix": twin_doc["matrix"], "potential": twin_doc["potential"]}))
        code, doc, _ = run(
            capsys, "rigidity", "conjugacy", "--input", exact_file, "--other", str(twin_path)
        )
        assert code == 4
        assert doc["obstruction"]["kind"] == "value_set_mismatch"
        assert doc["obstruction"]["missing_from_target"] == [0.3, 0.4]

    def test_counterexample_round_trips_as_input(self, capsys, exact_file):
        code, doc, _ = run(capsys, "rigidity", "counterexample", "--input", exact_file)
        assert code == 0
        assert doc["potential"]["q_matrix"][2][1] == "1/5"  # exact twin entry on edge (3, 2)

    def test_certificate(self, capsys, exact_file):
        code, doc, _ = run(capsys, "rigidity", "certificate", "--input", exact_file)
        assert code == 0
        assert doc["verdict"] is True
        assert doc["witness_cycle"] == [1, 3, 2, 1]
        assert doc["value_sets"]["missing_from_g"] == [0.3, 0.4]
        assert doc["mode"] == "exact"
        assert doc["tool_version"]
        assert len(doc["input_digest"]) == 64

    def test_certificate_lists_a_repeated_value_once(self, capsys, tmp_path):
        # 1/26 sits in columns 2 and 4; read as floats, the two copies differ in the last bit
        q = {(1, 2): Fraction(1, 13), (3, 2): Fraction(23, 26), (4, 2): Fraction(1, 26), (1, 4): Fraction(1, 26),
             (2, 4): Fraction(25, 26), (2, 1): Fraction(1), (1, 3): Fraction(1)}
        q_grid = [[None if (i, j) not in q else str(q[(i, j)]) for j in range(1, 5)] for i in range(1, 5)]
        log_grid = [[None if (i, j) not in q else math.log(q[(i, j)]) for j in range(1, 5)] for i in range(1, 5)]
        for kind, grid in (("q_matrix", q_grid), ("log_values", log_grid)):
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps({"matrix": FOUR_MATRIX, "potential": {kind: grid}}))
            code, doc, _ = run(capsys, "rigidity", "certificate", "--input", str(path))
            assert code == 0
            sets = doc["value_sets"]
            assert (len(sets["missing_from_g"]), len(sets["missing_from_f"])) == (3, 4)

    def test_degenerate_certificate_exits_2(self, capsys, tmp_path):
        q = [
            [None, "3/10", "1", "2/5"],
            ["1", None, None, "3/5"],
            [None, "1/5", None, None],
            [None, "1/2", None, None],
        ]
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps({"matrix": FOUR_MATRIX, "potential": {"q_matrix": q}}))
        code, _, err = run(capsys, "rigidity", "certificate", "--input", str(path))
        assert code == 2
        assert "degenerate" in err or "twin" in err or "a2" in err


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, capsys, monkeypatch, matrix_only_file):
        from markovgibbs import SolverError

        def boom(matrix):
            raise SolverError("synthetic failure")

        # handlers are registered at import time, so patch the library call
        monkeypatch.setattr(cli, "structure", boom)
        code = cli.main(["shift", "info", "--input", matrix_only_file])
        captured = capsys.readouterr()
        assert code == 3
        assert "synthetic failure" in captured.err

    def test_singular_newton_step_exits_3(self, capsys, tmp_path):
        rows = [[int(v is not None) for v in row] for row in SINGULAR_NEWTON_LOG_VALUES]
        path = tmp_path / "singular.json"
        potential = {"log_values": SINGULAR_NEWTON_LOG_VALUES}
        path.write_text(json.dumps({"matrix": {"n": 12, "rows": rows}, "potential": potential}))
        code, doc, err = run(
            capsys, "spectrum", "curve", "--input", str(path), "--qmin", "-20", "--qmax", "20", "--steps", "41"
        )
        assert code == 3
        assert doc is None
        assert err == "numerical failure: stack member 0: Newton step failed: Singular matrix\n"

    def test_word_symbol_out_of_range(self, capsys, exact_file):
        code, _, err = run(capsys, "gibbs", "measure", "--input", exact_file, "--word", "195")
        assert code == 2
        assert "1..4" in err


def shifted_file(tmp_path, name, grid, shift):
    shifted = [[None if v is None else v + shift for v in row] for row in grid]
    path = tmp_path / name
    path.write_text(json.dumps({"matrix": FOUR_MATRIX, "potential": {"log_values": shifted}}))
    return shifted, str(path)


def assert_close(doc, expected):
    """Equal documents, with reals within 1e-12."""
    if isinstance(expected, dict):
        assert doc.keys() == expected.keys()
        for key in expected:
            assert_close(doc[key], expected[key])
    elif isinstance(expected, list):
        assert len(doc) == len(expected)
        for item, other in zip(doc, expected):
            assert_close(item, other)
    elif isinstance(expected, float):
        assert doc == pytest.approx(expected, rel=1e-12, abs=1e-12)
    else:
        assert doc == expected


class TestLargePotentials:
    """Values near +-800, whose exponentials overflow or underflow, describe ordinary chains."""

    @pytest.mark.parametrize(
        "command",
        [
            ["gibbs", "measure", "--word", "132"],
            ["gibbs", "entropy"],
            ["spectrum", "curve"],
            ["rigidity", "check-g"],
            ["rigidity", "certificate"],
            ["rigidity", "counterexample"],
        ],
        ids=lambda command: "-".join(command[:2]),
    )
    def test_large_values_match_the_shifted_back_file(self, capsys, tmp_path, command):
        high, high_path = shifted_file(tmp_path, "high.json", log_values_grid(), 800.0)
        _, back_path = shifted_file(tmp_path, "back.json", high, -800.0)
        code, doc, err = run(capsys, *command, "--input", high_path)
        assert (code, err) == (0, "")
        _, expected, _ = run(capsys, *command, "--input", back_path)
        for d in (doc, expected):
            d.pop("input_digest", None)
        assert_close(doc, expected)

    def test_normalize_root_beyond_float_range_exits_3(self, capsys, tmp_path):
        _, path = shifted_file(tmp_path, "high.json", log_values_grid(), 800.0)
        code, doc, err = run(capsys, "gibbs", "normalize", "--input", path)
        assert (code, doc) == (3, None)
        assert err == "numerical failure: refusing to serialize a non-finite number\n"

    def test_normalize_small_values(self, capsys, tmp_path, log_file):
        _, path = shifted_file(tmp_path, "low.json", log_values_grid(), -800.0)
        code, doc, err = run(capsys, "gibbs", "normalize", "--input", path)
        assert (code, err) == (0, "")
        _, expected, _ = run(capsys, "gibbs", "normalize", "--input", log_file)
        assert_close(doc["stochastic_matrix"], expected["stochastic_matrix"])
        assert_close(doc["stationary"], expected["stationary"])
        assert doc["perron_root"] == 0.0  # exp(-800) underflows


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, exact_file):
        main(["rigidity", "certificate", "--input", exact_file])
        first = capsys.readouterr().out
        main(["rigidity", "certificate", "--input", exact_file])
        second = capsys.readouterr().out
        assert first == second

    def test_cold_and_warm_shared_base_give_identical_output(self, capsys, monkeypatch, tmp_path):
        demo = str(DEMO)
        _, twin_doc, _ = run(capsys, "rigidity", "counterexample", "--input", demo)
        twin_path = tmp_path / "twin.json"
        twin_path.write_text(json.dumps({"matrix": twin_doc["matrix"], "potential": twin_doc["potential"]}))
        commands = (
            ["rigidity", "certificate", "--input", demo],
            ["rigidity", "counterexample", "--input", demo],
            ["spectrum", "compare", "--input", demo, "--other", str(twin_path)],
            ["shift", "autos", "--input", demo],
            ["shift", "amalgamate", "--input", demo],
        )
        cold = TransitionMatrix(rigidity.counterexample_matrix().entries)
        monkeypatch.setattr(rigidity, "_COUNTEREXAMPLE", cold)
        runs = []
        for _ in range(2):
            outputs = []
            for argv in commands:
                assert main(argv) == 0
                outputs.append(capsys.readouterr().out)
            runs.append(outputs)
            assert cold._automorphisms is not None and cold._cycles is not None
        assert runs[0] == runs[1]

    def test_documents_reparse(self, capsys, exact_file, matrix_only_file):
        for argv in (
            ["shift", "info", "--input", matrix_only_file],
            ["gibbs", "normalize", "--input", exact_file],
            ["rigidity", "certificate", "--input", exact_file],
        ):
            code = main(argv)
            assert code == 0
            json.loads(capsys.readouterr().out)


class TestReadme:
    def test_command_lines_match_registry(self):
        section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
        listed = [
            tuple(line.split()[1:3]) for line in section.splitlines() if line.startswith("markovgibbs ")
        ]
        registered = [(group, name) for group, name, _, _ in cli._COMMANDS]
        assert listed == registered
