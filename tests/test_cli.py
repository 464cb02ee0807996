import json

import numpy as np
import pytest

from conftest import TABLE1

from rinclose import ALGORITHMS, EnumParams, enumerate_biclusters, save_matrix
from rinclose.cli import main
from rinclose.core import BIC_TYPES, PERFECT_TYPES
from rinclose.io import solution_to_json

WORKED_EXAMPLE = (
    '[{"rows":[0,1],"cols":[1,2,3,4]},'
    '{"rows":[0,1,2],"cols":[1,2,4]},'
    '{"rows":[0,2],"cols":[0,1,4]},'
    '{"rows":[1,2],"cols":[0,1,2,4]}]\n'
)


@pytest.fixture
def table1_csv(tmp_path):
    path = tmp_path / "table1.csv"
    save_matrix(TABLE1, path)
    return str(path)


def mine_args(table1_csv, *extra):
    return ["mine", "--alg", "chv", "--epsilon", "1", "--min-rows", "2",
            "--min-cols", "3", "--input", table1_csv, *extra]


def test_mine_worked_example(table1_csv, capsys):
    assert main(mine_args(table1_csv)) == 0
    out, err = capsys.readouterr()
    assert out == WORKED_EXAMPLE
    assert '{"rows":[0,2],"cols":[0,1,4]}' in out
    assert "4 biclusters" in err


def test_mine_to_output_file(table1_csv, tmp_path, capsys):
    dest = tmp_path / "out.json"
    assert main(mine_args(table1_csv, "--output", str(dest))) == 0
    out, _ = capsys.readouterr()
    assert out == ""
    assert dest.read_text() == WORKED_EXAMPLE


def test_mine_is_byte_deterministic(table1_csv, capsys):
    main(mine_args(table1_csv))
    first = capsys.readouterr().out
    main(mine_args(table1_csv))
    assert capsys.readouterr().out == first


def test_oracle_alg_agrees_with_engine(table1_csv, capsys):
    main(mine_args(table1_csv))
    engine = capsys.readouterr().out
    args = mine_args(table1_csv)
    args[2] = "oracle:chv"
    assert main(args) == 0
    assert capsys.readouterr().out == engine


def test_bad_epsilon_type_combo_is_a_usage_error(table1_csv, capsys):
    argv = ["mine", "--alg", "cvc", "--epsilon", "0", "--input", table1_csv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "cvc-p" in capsys.readouterr().err


def test_ctv_binary_with_scale_model_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "ones.csv"
    save_matrix(np.ones((3, 3)), path)
    with pytest.raises(SystemExit) as exc:
        main(["mine", "--alg", "ctv-binary", "--model", "scale", "--input", str(path)])
    assert exc.value.code == 2
    assert "ctv-binary" in capsys.readouterr().err


def test_unknown_alg_is_a_usage_error(table1_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mine", "--alg", "ctv", "--input", table1_csv])
    assert exc.value.code == 2


def test_missing_input_is_a_data_error(tmp_path, capsys):
    rc = main(["mine", "--alg", "cvc-p", "--input", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert capsys.readouterr().err != ""


def test_non_binary_matrix_rejected_for_ctv(table1_csv, capsys):
    rc = main(["mine", "--alg", "ctv-binary", "--input", table1_csv])
    assert rc == 1
    assert "0 or 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_differences_are_a_data_error_for_chv_p(tmp_path, capsys):
    path = tmp_path / "big.csv"
    save_matrix(np.array([[1e308, -1e308], [1.5e308, -1e308]]), path)
    rc = main(["mine", "--alg", "chv-p", "--min-cols", "2", "--input", str(path)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


@pytest.mark.parametrize("command", ["report", "evaluate"])
@pytest.mark.parametrize("rows", ["[0.7,true]", "[-1]", '["2"]'])
def test_solution_indices_must_be_non_negative_integers(tmp_path, capsys, command, rows):
    sol = tmp_path / "sol.json"
    sol.write_text(f'[{{"rows":{rows},"cols":[0]}}]')
    files = {"report": ["--solution", str(sol)],
             "evaluate": ["--found", str(sol), "--reference", str(sol)]}[command]
    assert main([command, *files, "--rows", "3", "--cols", "3"]) == 1
    assert "bad bicluster at index 0" in capsys.readouterr().err


def test_quiet_mode_silences_diagnostics(table1_csv, capsys, monkeypatch):
    monkeypatch.setenv("RINCLOSE_LOG", "quiet")
    assert main(mine_args(table1_csv)) == 0
    out, err = capsys.readouterr()
    assert out == WORKED_EXAMPLE
    assert err == ""


def test_generate_mine_evaluate_roundtrip(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    truth = tmp_path / "truth.json"
    found = tmp_path / "found.json"
    rc = main([
        "generate", "--rows", "60", "--cols", "18", "--bics", "3",
        "--bic-rows", "10", "--bic-cols", "4", "--overlap", "0.2",
        "--sigma", "0", "--seed", "3", "--pattern", "chv-shift",
        "--out-matrix", str(mat), "--out-truth", str(truth),
    ])
    assert rc == 0
    rc = main([
        "mine", "--alg", "chv-p", "--min-rows", "10", "--min-cols", "4",
        "--input", str(mat), "--output", str(found),
    ])
    assert rc == 0
    capsys.readouterr()
    rc = main([
        "evaluate", "--found", str(found), "--reference", str(truth),
        "--rows", "60", "--cols", "18",
    ])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert json.loads(out) == {"precision": 1.0, "recall": 1.0}


def test_infeasible_generate_config_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "generate", "--rows", "20", "--cols", "10", "--bics", "5",
            "--bic-rows", "10", "--bic-cols", "4", "--overlap", "0",
            "--out-matrix", str(tmp_path / "m.csv"),
            "--out-truth", str(tmp_path / "t.json"),
        ])
    assert exc.value.code == 2


def test_report_subcommand(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text('[{"rows":[0,1],"cols":[0,1]},{"rows":[1,2],"cols":[1,2]}]')
    assert main(["report", "--solution", str(sol), "--rows", "3", "--cols", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["num_biclusters"] == 2
    assert rep["coverage_cells"] == 7
    assert rep["global_overlap"] == pytest.approx(1 / 7)


def test_report_rejects_out_of_range_solution(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text('[{"rows":[5],"cols":[0]}]')
    rc = main(["report", "--solution", str(sol), "--rows", "3", "--cols", "3"])
    assert rc == 1


def test_mine_all_algorithms_run(tmp_path, capsys):
    path = tmp_path / "bin.csv"
    save_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]), path)
    for alg, eps in (("ctv-binary", "0"), ("cvc-p", "0"), ("cvr-p", "0"),
                     ("cvc", "0.5"), ("cvr", "0.5"), ("chv-p", "0"), ("chv", "0.5")):
        extra = ["--min-cols", "2"] if "chv" in alg else []
        rc = main(["mine", "--alg", alg, "--epsilon", eps,
                   "--input", str(path), *extra])
        assert rc == 0, alg
        out, _ = capsys.readouterr()
        json.loads(out)  # well-formed result on every path


def test_cli_and_library_share_one_dispatch_table(table1_csv, tmp_path, capsys):
    assert set(ALGORITHMS) == BIC_TYPES
    binary_csv = tmp_path / "binary.csv"
    save_matrix(TABLE1 >= 2, binary_csv)  # ctv-binary needs a 0/1 matrix
    for alg in ALGORITHMS:
        mat, path = (TABLE1 >= 2, binary_csv) if alg == "ctv-binary" else (TABLE1, table1_csv)
        params = EnumParams(0.0 if alg in PERFECT_TYPES else 1.0, 2, 2, alg)
        rc = main(["mine", "--alg", alg, "--epsilon", str(params.epsilon),
                   "--min-rows", "2", "--min-cols", "2", "--input", str(path)])
        assert rc == 0, alg
        out = capsys.readouterr().out
        assert out == solution_to_json(enumerate_biclusters(mat, params)), alg
        assert out != "[]\n", alg


def test_output_into_missing_directory_is_a_data_error(table1_csv, tmp_path, capsys):
    dest = tmp_path / "no-such-dir" / "out.json"
    assert main(mine_args(table1_csv, "--output", str(dest))) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err
    assert not dest.exists()


@pytest.mark.parametrize("command", ["report", "evaluate"])
@pytest.mark.parametrize("flag", ["--rows", "--cols"])
def test_shape_flags_must_be_positive(tmp_path, capsys, command, flag):
    sol = tmp_path / "sol.json"
    sol.write_text('[{"rows":[0],"cols":[0]}]')
    files = {"report": ["--solution", str(sol)],
             "evaluate": ["--found", str(sol), "--reference", str(sol)]}[command]
    argv = [command, *files, "--rows", "3", "--cols", "3"]
    argv[argv.index(flag) + 1] = "0"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
