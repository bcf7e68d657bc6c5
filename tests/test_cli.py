import json
import math
import sys

import pytest

from tamexp.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_certify_alt_exit_codes(tmp_path):
    code, text = run(tmp_path, "certify-alt", "--p", "3", "--n", "3", "--e", "1,1,2")
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "Alt"
    assert payload["schema"] == 1
    assert payload["order"] == str(__import__("math").factorial(26) // 2)
    assert payload["field"].startswith("p=3 ell=1")
    code, text = run(tmp_path, "certify-alt", "--p", "3", "--n", "3", "--e", "1,1,1")
    assert code == 1
    assert json.loads(text)["verdict"] == "Proper"


def test_outputs_are_deterministic(tmp_path):
    a = run(tmp_path, "certify-alt", "--p", "3", "--n", "3", "--e", "1,1,2",
            "--seed", "5")[1]
    b = run(tmp_path, "certify-alt", "--p", "3", "--n", "3", "--e", "1,1,2",
            "--seed", "5")[1]
    assert a == b
    a = run(tmp_path, "orbits", "--p", "3", "--e", "1,1,2", "--ell", "2",
            "--format", "csv")[1]
    b = run(tmp_path, "orbits", "--p", "3", "--e", "1,1,2", "--ell", "2",
            "--format", "csv")[1]
    assert a == b


def test_orbits_csv(tmp_path):
    code, text = run(tmp_path, "orbits", "--p", "3", "--n", "3", "--e", "1,1,2",
                     "--ell", "1", "--format", "csv")
    assert code == 0
    assert text.splitlines()[0] == "d0,a1_label,orbit_size"
    assert "1,1,26" in text


def test_orbits_dot(tmp_path):
    code, text = run(tmp_path, "orbits", "--p", "3", "--n", "3", "--e", "1,1,2",
                     "--ell", "1", "--format", "dot")
    assert code == 0
    assert text.startswith("graph schreier {")
    assert '"o1_0" --' in text


def test_gamma_classes_json(tmp_path):
    code, text = run(tmp_path, "gamma-classes", "--p", "3", "--e", "1,1,2",
                     "--ell", "2")
    assert code == 0
    payload = json.loads(text)
    big = max(payload["orbits"], key=lambda o: o["orbit_size"])
    assert big["orbit_size"] == 3**6 - 3**3
    assert big["histogram"] == {"2": big["class_count"]}


def test_synth_cli(tmp_path):
    code, text = run(tmp_path, "synth", "--p", "5", "--e", "1,1,2", "--t", "2",
                     "--r", "3", "--emit-endo")
    assert code == 0
    payload = json.loads(text)
    assert payload["verified"] and payload["target"] == "T(1,2,2,3)"
    assert payload["endo"][1] == "1*x2"
    code, text = run(tmp_path, "synth", "--p", "5", "--e", "1,1,2",
                     "--poly", "1,1")
    assert code == 0
    # bad exponent: exit 1
    code, _ = run(tmp_path, "synth", "--p", "23", "--e", "2,2,2", "--t", "3")
    assert code == 1


def test_gap_csv(tmp_path):
    code, text = run(tmp_path, "gap", "--p", "5", "--thm15", "i")
    assert code == 0
    header, row = text.splitlines()[:2]
    assert header == "p,V,degree,lambda2,gap,method,residual"
    assert row.startswith("5,124,6,")


def test_kazhdan_cli(tmp_path):
    code, text = run(tmp_path, "kazhdan", "--p", "11", "--n", "3", "--e", "1,1,2")
    assert code == 0
    payload = json.loads(text)
    assert abs(payload["bound"] - 0.301157335795879) < 1e-12
    code, text = run(tmp_path, "kazhdan", "--p", "5", "--n", "3", "--e", "2,2,2")
    assert code == 1


def test_gamma_group_cli(tmp_path):
    code, text = run(tmp_path, "gamma-group", "--c", "2", "--p", "5")
    assert code == 0
    payload = json.loads(text)
    assert payload["order"] == 625 and payload["nilpotency_class"] == 3
    assert payload["commutator_formula"]


def test_verify_lemmas_small(tmp_path):
    code, text = run(tmp_path, "verify-lemmas", "--qmax", "27", "--trials", "50")
    assert code == 0
    payload = json.loads(text)
    assert payload["all_pass"]
    assert payload["interpolation_pass"] == "50/50"


def test_certify_on_classes(tmp_path):
    # Gamma-class action for p=3, ell=2, e=(1,1,2): Alt((3^6-3^2)/2) = Alt(360)
    code, text = run(tmp_path, "certify-alt", "--p", "3", "--n", "3",
                     "--e", "1,1,2", "--ell", "2", "--on-classes")
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "Alt"
    assert payload["degree"] == (3**6 - 3**3) // 2  # Alt(351)


def test_bad_input_exit_code(tmp_path):
    assert main(["certify-alt", "--p", "notanint"]) == 3


def test_certify_thm15_ii_big_order(tmp_path):
    # the order string of Alt(2186) has ~6100 digits; the emitter must
    # not trip Python's int-to-str conversion limit
    code, text = run(tmp_path, "certify-alt", "--thm15", "ii", "--p", "3")
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "Alt"
    assert payload["degree"] == 2186
    assert len(payload["order"]) > 4300


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str limit before Python 3.11")
def test_big_order_leaves_int_str_limit_alone(tmp_path):
    # the limit is interpreter-wide: emitting 2186!/2 must lift it for
    # that one conversion and restore it afterwards
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter default
    try:
        code, text = run(tmp_path, "certify-alt", "--thm15", "ii", "--p", "3")
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        expected = str(math.factorial(2186) // 2)
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 0
    assert json.loads(text)["order"] == expected
