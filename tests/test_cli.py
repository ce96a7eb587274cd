import json

import pytest

from cosafe.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_ms(csv_text):
    """Drop the elapsed-milliseconds column, the only nondeterministic
    field."""
    rows = []
    for line in csv_text.strip().split("\n"):
        rows.append(",".join(line.split(",")[:-1]))
    return rows


def test_lock_experiment_small_digits(capsys):
    code, out, _ = run(capsys, "lock-experiment", "--digits", "2",
                       "--operators", "shift")
    assert code == 0
    rows = strip_ms(out)
    assert rows[0] == "operators,inferred,explored"
    assert rows[1].startswith("{shift},")
    inferred, explored = map(int, rows[1].split(",")[1:3])
    assert 0 < inferred < 100
    assert explored > 0


def test_lock_experiment_rejects_unknown_operator(capsys):
    code, _, err = run(capsys, "lock-experiment", "--digits", "2",
                       "--operators", "warp")
    assert code == 2
    assert "warp" in err


def test_lock_experiment_unknown_budget_exits_1(capsys):
    code, out, _ = run(capsys, "lock-experiment", "--digits", "2",
                       "--operators", "shift", "--max-pairs", "3")
    assert code == 1


def test_puzzle_experiment_golden_counts(capsys):
    code, out, _ = run(capsys, "puzzle-experiment", "--rows", "17:20")
    assert code == 0
    rows = strip_ms(out)
    assert rows[0] == "N,MAX,operators,outcome,explored"
    assert rows[1] == "17,20,{},Holds,1616"
    assert rows[2] == "17,20,{swap},Holds,845"


def test_puzzle_experiment_bad_row_spec(capsys):
    code, _, err = run(capsys, "puzzle-experiment", "--rows", "17x20")
    assert code == 2
    assert "N:MAX" in err


def test_check_dial_json(capsys):
    code, out, _ = run(capsys, "check", "--model", "dial", "F <.=7>")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "Holds"
    assert doc["pairs_explored"] == 8  # states 0..7 along the cycle
    code, out, _ = run(capsys, "check", "--model", "dial",
                       "--state", "3", "G <.!=7>")
    assert code == 0
    assert json.loads(out)["outcome"] == "Fails"


def test_check_swat_property_text(capsys):
    code, out, _ = run(capsys, "check", "--model", "swat",
                       "G <(_,_,{true})>")
    assert code == 0
    assert json.loads(out)["outcome"] == "Holds"


def test_check_bad_property_is_config_error(capsys):
    code, _, err = run(capsys, "check", "--model", "dial", "G <.~7>")
    assert code == 2
    assert "bad property" in err


def test_check_unknown_model_is_config_error(capsys):
    code, _, err = run(capsys, "check", "--model", "toaster", "tt")
    assert code == 2


def test_check_state_flag_limited_to_dial_and_lock(capsys):
    code, _, err = run(capsys, "check", "--model", "swat", "--state", "0",
                       "tt")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--model", "lock", "--digits", "2", "--state", "500", "G <.!=3>"),
    ("--model", "dial", "--state", "12", "G <.!=3>"),
    ("--model", "dial", "--state", "-1", "G <.!=3>"),
    ("--model", "dial", "--state", "three", "G <.!=3>"),
    ("--model", "dial", "v"),
    ("--model", "dial", "nu v. v"),
    ("--model", "dial", "nu v. <.!=3> & v"),
])
def test_check_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "check", "--model", "dial", "F <.=7>",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["outcome"] == "Holds"


def test_quantify_from_attacker_file(tmp_path, capsys):
    spec = [
        {"name": "spoof-all", "attacks": [{"kind": "surge"}]},
        {"name": "nudge", "attacks": [{"kind": "bias",
                                       "params": {"b": 200}}]},
    ]
    path = tmp_path / "attackers.json"
    path.write_text(json.dumps(spec))
    dot = tmp_path / "hasse.dot"
    code, out, _ = run(capsys, "quantify", "--model", "swat",
                       "--attackers", str(path), "--dot", str(dot))
    assert code == 0
    doc = json.loads(out)
    by_name = {r["attacker"]: r for r in doc["reports"]}
    assert by_name["spoof-all"]["capabilities"] == ["Con", "Hg", "Lvl"]
    assert by_name["nudge"]["capabilities"] == ["Con"]
    assert doc["hasse"] == [["nudge", "spoof-all"]]
    assert '"nudge" -> "spoof-all";' in dot.read_text()


def test_quantify_rejects_unknown_kind(tmp_path, capsys):
    path = tmp_path / "attackers.json"
    path.write_text(json.dumps([{"name": "x",
                                 "attacks": [{"kind": "meteor"}]}]))
    code, _, err = run(capsys, "quantify", "--model", "swat",
                       "--attackers", str(path))
    assert code == 2
    assert "meteor" in err


def test_quantify_rejects_non_swat_model(tmp_path, capsys):
    path = tmp_path / "attackers.json"
    path.write_text("[]")
    code, _, err = run(capsys, "quantify", "--model", "dial",
                       "--attackers", str(path))
    assert code == 2


def test_determinism_modulo_ms(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "puzzle-experiment", "--rows", "17:20")
        assert code == 0
        outs.append(strip_ms(out))
    assert outs[0] == outs[1]


def test_swat_experiment_structure(capsys):
    code, out, _ = run(capsys, "swat-experiment")
    assert code == 0
    csv_part, json_part = out.split("\n{", 1)
    rows = strip_ms(csv_part)
    assert rows[0] == "property,scenario,explored,holds"
    by_key = {}
    for row in rows[1:]:
        prop, scen, explored, holds = row.split(",")
        by_key[(prop, scen)] = (int(explored), holds)
    assert by_key[("Lvl", "unattacked")][1] == "True"
    assert by_key[("Hg", "unattacked")] == (1, "True")  # inferred from Lvl
    assert by_key[("Con", "beta")][1] == "False"
    assert by_key[("Lvl", "gamma")][1] == "False"
    assert by_key[("Con", "gamma")][1] == "True"
    doc = json.loads("{" + json_part)
    assert sorted(doc["hasse"]) == [["beta", "alpha"], ["gamma", "alpha"]]
