import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time

import jsonschema
import pytest

from zeroleak import generate_valid_mapping, resolve_fixture
from zeroleak.cli import _SUBCOMMANDS, SCHEMA_BY_SUBCOMMAND, load_schema, main
from zeroleak.jsonio import canonical_json_bytes, mapping_from_obj, mapping_to_obj
from helpers import brute_mis


def run_main(capsysbinary, *args):
    code = main(list(args))
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


def run_proc(*args, env_extra=None):
    env = dict(os.environ)
    # buffered, as a pipe is by default, so that an unflushed write is lost
    env.pop("PYTHONUNBUFFERED", None)
    if env_extra:
        env.update(env_extra)
    done = subprocess.run(
        [sys.executable, "-m", "zeroleak.cli", *args],
        capture_output=True,
        env=env,
    )
    return done.returncode, done.stdout, done.stderr


def check_schema(subcommand: str, payload: bytes):
    jsonschema.validate(json.loads(payload), load_schema(SCHEMA_BY_SUBCOMMAND[subcommand]))


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_bytes(canonical_json_bytes(obj))
    return str(path)


def test_chif_example_bytes(capsysbinary):
    code, out, err = run_main(capsysbinary, "chif", "--graph", "fixture:c5")
    assert code == 0 and err == b""
    assert out == b'{\n  "bits": 1.321928094887,\n  "chi_f": "5/2"\n}\n'
    check_schema("chif", out)


def test_leakage_eval_example(capsysbinary, tmp_path):
    scheme_path = str(tmp_path / "scheme.json")
    code, _, _ = run_main(capsysbinary, "scheme", "--graph", "fixture:fig1", "--out", scheme_path)
    assert code == 0
    code, out, err = run_main(
        capsysbinary, "leakage-eval", "--graph", "fixture:fig1", "--mapping", scheme_path
    )
    assert code == 0
    assert out == b'{\n  "bits": 1.0,\n  "log2_of": "2/1"\n}\n'
    check_schema("leakage-eval", out)


def test_leakage_eval_rejects_invalid_mapping(capsysbinary, tmp_path):
    bad = write_json(
        tmp_path,
        "bad.json",
        {"t": 1, "codewords": ["all"], "rows": [["1/1"], ["1/1"], ["1/1"], ["1/1"]]},
    )
    code, out, err = run_main(capsysbinary, "leakage-eval", "--graph", "fixture:fig1", "--mapping", bad)
    assert code == 1 and out == b""
    obj = json.loads(err)
    jsonschema.validate(obj, load_schema("error"))
    assert obj["error"]["code"] == "invalid_mapping"
    assert obj["error"]["detail"] == {"codeword": "all", "u": 0, "v": 2}


def test_product_of_k2_pair_is_k4(capsysbinary):
    code, out, _ = run_main(
        capsysbinary, "product", "--op", "or", "--graph", "fixture:k2", "--graph", "fixture:k2"
    )
    assert code == 0
    assert json.loads(out) == {
        "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
        "n": 4,
    }
    check_schema("product", out)


def test_product_and(capsysbinary):
    code, out, _ = run_main(
        capsysbinary, "product", "--op", "and", "--graph", "fixture:k3", "--graph", "fixture:k3"
    )
    assert code == 0
    assert json.loads(out)["n"] == 9
    check_schema("product", out)


def test_info(capsysbinary):
    code, out, _ = run_main(capsysbinary, "info", "--graph", "fixture:petersen")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 10
    assert obj["edge_count"] == 15
    assert obj["alpha"] == 4
    assert obj["mis_count"] == len(brute_mis(resolve_fixture("petersen")))
    assert obj["vertex_transitive"] is True
    assert obj["labels"] is None
    check_schema("info", out)

    code, out, _ = run_main(capsysbinary, "info", "--graph", "fixture:fig1")
    obj = json.loads(out)
    assert obj["labels"] == ["VH", "H", "VL", "L"]
    check_schema("info", out)


def test_info_skips_transitivity_past_cap(capsysbinary, tmp_path):
    ring = write_json(
        tmp_path,
        "ring11.json",
        {"n": 11, "edges": [[i, (i + 1) % 11] for i in range(10)] + [[0, 10]]},
    )
    code, out, _ = run_main(capsysbinary, "info", "--graph", ring)
    assert code == 0
    assert json.loads(out)["vertex_transitive"] is None
    check_schema("info", out)


def test_mis_and_alpha(capsysbinary):
    code, out, _ = run_main(capsysbinary, "mis", "--graph", "fixture:p3")
    assert json.loads(out) == {"alpha": 2, "mis": [[0, 2], [1]]}
    check_schema("mis", out)
    code, out, _ = run_main(capsysbinary, "alpha", "--graph", "fixture:c7")
    assert json.loads(out) == {"alpha": 3}
    check_schema("alpha", out)


def test_leakage_optimal(capsysbinary):
    code, out, _ = run_main(capsysbinary, "leakage-optimal", "--graph", "fixture:c5", "--t", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["t"] == 2
    assert obj["log2_of"] == "25/4"
    assert obj["witness_matches"] is True
    assert obj["witness_log2_of"] == "25/4"
    check_schema("leakage-optimal", out)
    mapping_from_obj(obj["witness"])  # witness is a loadable mapping document


def test_scheme_roundtrip(capsysbinary, tmp_path):
    out_path = str(tmp_path / "petersen_scheme.json")
    code, out, _ = run_main(capsysbinary, "scheme", "--graph", "fixture:petersen", "--out", out_path)
    assert code == 0 and out == b""
    data = open(out_path, "rb").read()
    check_schema("scheme", data)
    m = mapping_from_obj(json.loads(data))
    assert canonical_json_bytes(mapping_to_obj(m)) == data


def test_merge_subcommand(capsysbinary, tmp_path):
    e3 = resolve_fixture("e3")
    m = generate_valid_mapping(e3, 1, 4, random.Random(1), duplicate_codebook=True)
    path = write_json(tmp_path, "dup.json", mapping_to_obj(m))
    y1, y2 = m.codewords
    code, out, _ = run_main(
        capsysbinary, "merge", "--graph", "fixture:e3", "--mapping", path, y1, y2
    )
    assert code == 0
    merged = mapping_from_obj(json.loads(out))
    assert len(merged.codewords) == 1
    check_schema("merge", out)


def test_merge_not_mergeable(capsysbinary, tmp_path):
    k2 = resolve_fixture("k2")
    identity = {"t": 1, "codewords": ["a", "b"], "rows": [["1/1", "0/1"], ["0/1", "1/1"]]}
    path = write_json(tmp_path, "id.json", identity)
    code, out, err = run_main(capsysbinary, "merge", "--graph", "fixture:k2", "--mapping", path, "a", "b")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "not_mergeable"


def test_merge_rejects_a_taken_merged_name(capsysbinary, tmp_path):
    clash = {
        "t": 1,
        "codewords": ["a", "b", "(a&b)"],
        "rows": [["1/1", "0/1", "0/1"], ["0/1", "0/1", "1/1"], ["0/1", "1/1", "0/1"]],
    }
    path = write_json(tmp_path, "clash.json", clash)
    code, out, err = run_main(capsysbinary, "merge", "--graph", "fixture:e3", "--mapping", path, "a", "b")
    assert code == 1 and out == b""
    error = json.loads(err)["error"]
    assert error["code"] == "bad_merge"
    assert error["detail"] == {"name": "(a&b)"}


# Recorded before mappings moved to integer counts; any drift in a seeded
# trial or in a scheme's bytes is a change of result, not of representation.
PINNED_ORACLE = [
    (("multi-guess-floor", "--t", "2", "--trials", "200"), {"lhs": "41/4", "rhs": "25/4"}),
    (("merge-closure", "--t", "1", "--trials", "200"), {"lhs": "1/1", "merges": 1197}),
    (("merge-closure", "--t", "2", "--trials", "6"), {"lhs": "1/1", "merges": 196}),
]
PINNED_SHA256 = [
    (("scheme", "--graph", "fixture:c7"), "f074eb2b67e98394506c31c3bbdca2142e8a985e7a7998335f139ef39f816881"),
    (("scheme", "--graph", "fixture:fig1_theta"), "e1c5e7af60496f758cfcd27ad24cfa68e37ac7b20f5f27aca77cca10e985caae"),
    (
        ("leakage-optimal", "--graph", "fixture:c5", "--t", "2"),
        "1e6b416bdc12442f3de2a26d7075848665b1cc76392a7142dd93851eb16a28b2",
    ),
    # recorded while the witness came from the maximin split LP on the power
    (
        ("leakage-optimal", "--graph", "fixture:c7", "--t", "2"),
        "7d91ef952c0908e3628ef826af0329eda96e40dd0faf3beb862e06b9606dc8bb",
    ),
    (
        ("leakage-optimal", "--graph", "fixture:petersen", "--t", "2"),
        "6bbed7205cf346127b55d8231aec90face79dd2ffd615c33778e9799401289b9",
    ),
    # recorded while the product sets and the tensored certificate walked
    # every factor; an odd t takes the multiply step of the squaring loop
    (
        ("leakage-optimal", "--graph", "fixture:c7", "--t", "3"),
        "09d81e5dc9769d44d4e3a29c4df803f94924287a663e8e76477d98540d41aae9",
    ),
    (
        ("leakage-optimal", "--graph", "fixture:petersen", "--t", "3"),
        "69ee553f4bd43d89b48ad160d25ef518d78c156499320223b816e54b30ad9c2b",
    ),
    # recorded before the approximate-guess caps were built from product
    # trace families; {onesT} is an all-ones table budget of length T
    (
        ("bounds-multi-approx", "--graph", "fixture:c5", "--theta", "fixture:c5", "--budget", "{ones4}"),
        "14faac056c127c1d2a3d4a63f600795c13ff2f8d59b8581fec27455bf60bd23c",
    ),
    (
        ("bounds-multi-approx", "--graph", "fixture:c7", "--theta", "fixture:c7", "--budget", "{ones3}"),
        "9811c827a8383fe48fd8b71ad96b58cc47724c37b97fad7bb1c7a3f938abcdd0",
    ),
    (
        ("bounds-multi-approx", "--graph", "fixture:petersen", "--theta", "fixture:petersen", "--budget", "{ones2}"),
        "d11e5cf90a3d84d3e9525cef38f76b2eaa4bb57b3415d7c6bc3920988220cf4c",
    ),
    (
        ("bounds-multi-approx", "--graph", "fixture:fig1", "--theta", "fixture:fig1_theta", "--budget", "{ones3}"),
        "60987d40ad9a7c1bcb7bf69cef1ded35d5fee0015b4c2dcbd529a1fee50343a5",
    ),
    (
        ("bounds-approx", "--graph", "fixture:petersen", "--theta", "fixture:petersen"),
        "b13e22e89f32c9fbd2bfc802c92da8950b89f3bf7d71f645a74acaa8ebc102db",
    ),
    (
        ("bounds-multi", "--graph", "fixture:petersen", "--budget", "exp:2/1"),
        "9adfa40df08c7d5f673b9f2165bb7cb79a42cf404b610ffe6365f37e3350480a",
    ),
    # recorded before graphs were stored as rows and the encoder skipped
    # json's pure-Python path; {petersen_or2} is the OR square of Petersen
    (
        ("product", "--op", "and", "--graph", "fixture:petersen", "--graph", "fixture:petersen"),
        "976bc58e553323c48d633b1af1ecaf7249f63b0d0f580da342fdcf54164904d2",
    ),
    (
        ("product", "--op", "or", "--graph", "fixture:c7", "--graph", "fixture:c7"),
        "7f9ecded2916229302cebb44dab093bb74012c65e913e35bb0ade735fa09262c",
    ),
    (
        ("mis", "--graph", "{petersen_or2}"),
        "f773612453f8e82798e7ebed380448f5be5496de67f7f4ff96e3193656a60e6a",
    ),
    # recorded before the prior grids and the packing sweep ran in integers
    # and merges carried their proof; {c5_t2_dup} is a seeded C5 t=2 mapping
    # with a doubled codebook, merged here in reverse column order
    (
        ("oracle", "packing", "--theta", "fixture:petersen"),
        "3e30961829bf3c8bf1fe195b93e2023da8d7cba978d77732c4cf24478a713d3c",
    ),
    (
        ("oracle", "packing", "--theta", "fixture:fig1_theta", "--grid", "3"),
        "c98a970f046c6d5c66f3a10e744ec2e6f01536291c00402d8cdbfdfa7e30f25e",
    ),
    (
        ("oracle", "--graph", "fixture:fig1", "--theta", "fixture:fig1_theta", "--seed", "1", "--trials", "200"),
        "12bc811037f19fde5e1f295ca9af57b8b2bc23c91597736a093301318c44737c",
    ),
    (
        ("merge", "--graph", "fixture:c5", "--mapping", "{c5_t2_dup}", "0+3+10+13#2", "0+3+10+13#1"),
        "71c03f50a1422003a39fd79a3e9325cc34dc9355a8063f55f47e08a461cb22d8",
    ),
    # recorded while alpha was the longest of all maximal independent sets;
    # {c5_or2} is the OR square of C5
    (("alpha", "--graph", "fixture:petersen"), "abd2f6ef6e4fd38ad4ac820e9d1082fc3fe026a01d6499624a495f60d8754439"),
    (("alpha", "--graph", "fixture:c7"), "a80c08d3d7046eb9f25f9ce947276903c75bde30b1ef146d5bb12a4c459db04f"),
    (("alpha", "--graph", "fixture:fig1"), "45b717e103140b18ea5e0a9c25f79057b9b4bd7779386bcf2443719fe572eae5"),
    (("alpha", "--graph", "fixture:e1"), "345d8494635a6aa52d467709fc314b0339e2c111bd12af3b09eb232b59b245a2"),
    (("info", "--graph", "fixture:petersen"), "f59cf1794e9a51353f08c488b4ba61edb658ef06bc0a259e17c2eed6afbd97d9"),
    (("info", "--graph", "fixture:c7"), "7fe747261835f7c03470082a48d22078c20c49d65c27f28c02b0322676a790b7"),
    (("info", "--graph", "fixture:fig1"), "ea4240e6b09b1ffc446d5484102298e8471fad43f150ee6615c5968bb081e761"),
    (("info", "--graph", "fixture:e1"), "bafa4c1baf6871a090e3c67e5062ff7fd2bc60ff16c39aff40ee0396d126dc8d"),
    (("info", "--graph", "{c5_or2}"), "d56753f0c50347e2379a8756417b0698cbef8648b7fd97174134fab17c906dad"),
]


def test_pinned_outputs(capsysbinary, tmp_path):
    tables = {
        f"ones{t}": "table:" + write_json(tmp_path, f"ones{t}.json", {"values": [1] * t, "growth": "1/1"})
        for t in (2, 3, 4)
    }
    tables["petersen_or2"] = str(tmp_path / "petersen_or2.json")
    c5_t2_dup = generate_valid_mapping(resolve_fixture("c5"), 2, 4, random.Random(7), duplicate_codebook=True)
    tables["c5_t2_dup"] = write_json(tmp_path, "c5_t2_dup.json", mapping_to_obj(c5_t2_dup))
    code, _, _ = run_main(
        capsysbinary, "product", "--op", "or", "--graph", "fixture:petersen", "--graph", "fixture:petersen",
        "--out", tables["petersen_or2"],
    )
    assert code == 0
    tables["c5_or2"] = str(tmp_path / "c5_or2.json")
    code, _, _ = run_main(
        capsysbinary, "product", "--op", "or", "--graph", "fixture:c5", "--graph", "fixture:c5", "--out", tables["c5_or2"]
    )
    assert code == 0
    for args, expected in PINNED_ORACLE:
        code, out, _ = run_main(capsysbinary, "oracle", args[0], "--graph", "fixture:c5", "--seed", "1", *args[1:])
        assert code == 0
        (report,) = json.loads(out)["reports"]
        assert report["status"] == "pass"
        seen = {key: report["witness"].get(key, report.get(key)) for key in expected}
        assert seen == expected, args
    for args, digest in PINNED_SHA256:
        code, out, _ = run_main(capsysbinary, *(a.format_map(tables) for a in args))
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == digest, args


def test_bounds_multi(capsysbinary):
    code, out, _ = run_main(capsysbinary, "bounds-multi", "--graph", "fixture:c5", "--budget", "exp:2/1")
    assert code == 0
    obj = json.loads(out)
    assert obj["lower"] == "5/2" and obj["upper"] == "5/2"
    assert obj["tight"] is True
    assert obj["lower_bits"] == pytest.approx(1.321928094887)
    assert obj["provenance"]["lower"] == "alphabet_over_independence_ratio"
    check_schema("bounds-multi", out)


def test_bounds_approx(capsysbinary):
    code, out, _ = run_main(
        capsysbinary, "bounds-approx", "--graph", "fixture:fig1", "--theta", "fixture:fig1_theta"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["lower"] == "2/1" and obj["upper"] == "2/1" and obj["tight"] is True
    assert obj["lower_bits"] == 1.0
    check_schema("bounds-approx", out)


def test_bounds_multi_approx_with_table_budget(capsysbinary, tmp_path):
    table = write_json(tmp_path, "table.json", {"values": [1, 1], "growth": "1/1"})
    code, out, _ = run_main(
        capsysbinary,
        "bounds-multi-approx",
        "--graph", "fixture:fig1",
        "--theta", "fixture:fig1_theta",
        "--budget", f"table:{table}",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["tight"] is True
    assert obj["provenance"]["budget"] == "collapses_to_single_approx_guess"
    check_schema("bounds-multi-approx", out)


def test_bounds_inadmissible_budget(capsysbinary):
    code, out, err = run_main(capsysbinary, "bounds-multi", "--graph", "fixture:c5", "--budget", "const:3")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "inadmissible_budget"


def test_empty_graph_error(capsysbinary, tmp_path):
    empty = write_json(tmp_path, "empty.json", {"n": 0, "edges": []})
    code, out, err = run_main(capsysbinary, "chif", "--graph", empty)
    assert code == 1 and out == b""
    obj = json.loads(err)
    assert obj["error"]["code"] == "empty_graph"
    jsonschema.validate(obj, load_schema("error"))
    # the checks that read priors or draw schemes refuse the graph first
    for args in (("multi-guess-floor", "--graph", empty), ("packing", "--theta", empty)):
        code, out, err = run_main(capsysbinary, "oracle", *args)
        assert code == 1 and out == b""
        assert json.loads(err)["error"]["code"] == "empty_graph", args


def test_usage_errors(capsysbinary):
    code, _, err = run_main(capsysbinary, "chif")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "usage"
    code, _, err = run_main(capsysbinary, "product", "--op", "or", "--graph", "fixture:k2")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "usage"
    code, _, err = run_main(capsysbinary, "nonsense")
    assert code == 1


# each usage path of the table parser, with a word its message must name;
# the wording is argparse's
USAGE_ERRORS = [
    ((), "the following arguments are required: SUBCOMMAND"),
    (("nonsense",), "argument SUBCOMMAND: invalid choice: 'nonsense' (choose from 'info', 'product'"),
    (("product", "--op", "xor", "--graph", "fixture:k2"), "argument --op: invalid choice: 'xor' (choose from 'or', 'and')"),
    (("bounds-multi-approx", "--graph", "fixture:c5"), "the following arguments are required: --theta, --budget"),
    (("merge", "--graph", "fixture:c5", "--mapping", "m.json", "a"), "the following arguments are required: y2"),
    (("leakage-optimal", "--graph", "fixture:c5", "--t", "2.5"), "argument --t: invalid int value: '2.5'"),
    (("oracle", "--grid", "x"), "argument --grid: invalid int value: 'x'"),
    (("oracle", "--seed", "x"), "argument --seed: invalid int value: 'x'"),
    (("oracle", "--trials=x"), "argument --trials: invalid int value: 'x'"),
    (("chif", "--graph"), "argument --graph: expected one argument"),
    (("chif", "--graph", "--out", "o.json"), "argument --graph: expected one argument"),
    (("chif", "--graph", "-x"), "argument --graph: expected one argument"),
    (("chif", "--graph", "--", "fixture:c5"), "argument --graph: expected one argument"),
    (("chif", "--graph", "fixture:c5", "--bogus", "3"), "unrecognized arguments: --bogus 3"),
    (("alpha", "--graph", "fixture:c5", "x", "--t", "2"), "unrecognized arguments: x --t 2"),
    (("chif", "--graph", "fixture:c5", "--", "x"), "unrecognized arguments: -- x"),
    (("oracle", "--g", "fixture:c5"), "ambiguous option: --g could match --graph, --grid"),
    (("product", "--o", "and"), "ambiguous option: --o could match --out, --op"),
    (("chif", "--help=x"), "argument -h/--help: ignored explicit argument 'x'"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_usage_errors_keep_argparse_wording(capsysbinary, argv, message):
    code, out, err = run_main(capsysbinary, *argv)
    assert code == 1 and out == b""
    error = json.loads(err)
    jsonschema.validate(error, load_schema("error"))
    assert error["error"]["code"] == "usage"
    assert error["error"]["message"].startswith(message)


def test_option_spellings_give_the_same_answer(capsysbinary):
    expected = run_main(capsysbinary, "leakage-optimal", "--graph", "fixture:c5", "--t", "2")
    assert expected[0] == 0
    for argv in (
        ("leakage-optimal", "--graph=fixture:c5", "--t=2"),
        ("leakage-optimal", "--gr", "fixture:c5", "--t", "2"),
        ("leakage-optimal", "--g=fixture:c5", "--t", "2"),
        ("leakage-optimal", "--t", "2", "--graph", "fixture:k2", "--graph", "fixture:c5"),
        ("leakage-optimal", "--t", "5", "--graph", "fixture:c5", "--t", "2"),
    ):
        assert run_main(capsysbinary, *argv) == expected, argv


def test_negative_numbers_and_lone_dashes_are_values(capsysbinary):
    # read as values, they reach the library, which refuses them itself
    code, out, err = run_main(capsysbinary, "leakage-optimal", "--graph", "fixture:c5", "--t", "-1")
    assert code == 1 and json.loads(err)["error"]["code"] != "usage"
    code, out, err = run_main(capsysbinary, "chif", "--graph", "-")
    assert code == 1 and json.loads(err)["error"]["code"] == "unreadable_file"


def test_positionals_may_sit_between_options(capsysbinary, tmp_path):
    m = generate_valid_mapping(resolve_fixture("e3"), 1, 4, random.Random(1), duplicate_codebook=True)
    path = write_json(tmp_path, "dup.json", mapping_to_obj(m))
    y1, y2 = m.codewords
    expected = run_main(capsysbinary, "merge", "--graph", "fixture:e3", "--mapping", path, y1, y2)
    assert expected[0] == 0
    for argv in (
        ("merge", y1, "--graph", "fixture:e3", y2, "--mapping", path),
        ("merge", "--graph", "fixture:e3", "--mapping", path, "--", y1, y2),
        ("merge", "--g", "fixture:e3", y1, "--m=" + path, "--", y2),
    ):
        assert run_main(capsysbinary, *argv) == expected, argv
    # after `--` a token that reads as an option is a codeword name
    code, _, err = run_main(capsysbinary, "merge", "--graph", "fixture:e3", "--mapping", path, "--", "-a", y2)
    assert code == 1 and json.loads(err)["error"]["message"] == "no codeword named '-a'"
    expected = run_main(capsysbinary, "oracle", "duality", "packing", "--graph", "fixture:k3", "--theta", "fixture:k3")
    assert expected[0] == 0
    for argv in (
        ("oracle", "duality", "--graph", "fixture:k3", "packing", "--theta", "fixture:k3"),
        ("oracle", "--th", "fixture:k3", "--gra", "fixture:k3", "--", "duality", "packing"),
    ):
        assert run_main(capsysbinary, *argv) == expected, argv


def test_product_repeats_graph_and_checks_op(capsysbinary):
    code, out, _ = run_main(
        capsysbinary, "product", "--graph", "fixture:k2", "--op=and", "--gr", "fixture:p3", "--graph=fixture:e1"
    )
    assert code == 0
    assert json.loads(out)["n"] == 6


def test_help_goes_to_stdout_and_exits_zero(capsysbinary):
    code, out, err = run_proc("--help")
    assert code == 0 and err == b""
    text = out.decode()
    assert text.startswith("usage: zeroleak")
    assert all(name in text for name in SCHEMA_BY_SUBCOMMAND)
    for flag in ("-h", "--help", "--he"):
        code, out, err = run_main(capsysbinary, "merge", flag)
        assert code == 0 and err == b""
        text = out.decode()
        assert text.startswith("usage: zeroleak merge") and "--mapping MAPPING" in text and "y2" in text
    # help is read in turn, so it wins over options still missing or unknown
    code, out, _ = run_main(capsysbinary, "oracle", "--bogus", "--h")
    assert code == 0 and "CHECK" in out.decode()


def test_unreadable_and_malformed_files(capsysbinary, tmp_path):
    code, _, err = run_main(capsysbinary, "chif", "--graph", str(tmp_path / "missing.json"))
    assert code == 1
    assert json.loads(err)["error"]["code"] == "unreadable_file"
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run_main(capsysbinary, "chif", "--graph", str(broken))
    assert json.loads(err)["error"]["code"] == "bad_json"
    loose = write_json(tmp_path, "loose.json", {"n": 2, "edges": [], "color": "red"})
    code, _, err = run_main(capsysbinary, "chif", "--graph", loose)
    assert json.loads(err)["error"]["code"] == "bad_graph_json"


_MALFORMED_GRAPHS = [
    # (edges, n, code, message); the first bad entry in file order is named
    ([[0, 1], 5], 3, "bad_graph_json", "edge 5 must be a pair of integers"),
    ([[0, 1, 2]], 3, "bad_graph_json", "edge [0, 1, 2] must be a pair of integers"),
    ([[0]], 3, "bad_graph_json", "edge [0] must be a pair of integers"),
    ([["0", 1]], 3, "bad_graph_json", "edge ['0', 1] must be a pair of integers"),
    ([{"a": 0, "b": 1}], 3, "bad_graph_json", "edge {'a': 0, 'b': 1} must be a pair of integers"),
    ([[0, True]], 3, "bad_graph_json", "edge [0, True] must be a pair of integers"),
    ([True], 3, "bad_graph_json", "edge True must be a pair of integers"),
    ([[0, 1.0]], 3, "bad_graph_json", "edge [0, 1.0] must be a pair of integers"),
    ([[0, 1], [2, 2]], 3, "self_loop", "self-loop at vertex 2"),
    ([[-1, -1]], 3, "self_loop", "self-loop at vertex -1"),
    ([[0, 3]], 3, "bad_edge", "edge (0, 3) out of range or not normalized for n=3"),
    ([[7, 1]], 3, "bad_edge", "edge (1, 7) out of range or not normalized for n=3"),
    ([[-1, 2]], 3, "bad_edge", "edge (-1, 2) out of range or not normalized for n=3"),
    ([[0, 1], [0, 5], [1.5, 2]], 3, "bad_edge", "edge (0, 5) out of range or not normalized for n=3"),
    ([[0, 1], [1.5, 2], [0, 5]], 3, "bad_graph_json", "edge [1.5, 2] must be a pair of integers"),
    ([[1, 1], [0, 5]], 3, "self_loop", "self-loop at vertex 1"),
    ([[0, 5], [1, 1]], 3, "bad_edge", "edge (0, 5) out of range or not normalized for n=3"),
    # the first entry's shape is checked before the rows' size, its range after
    ([[0, True], [0, 1]], 10**6, "bad_graph_json", "edge [0, True] must be a pair of integers"),
    ([[0, 1], [0, True]], 10**6, "budget_exceeded",
     "graph rows needs 15625000000 units, over the graph_rows budget of 1048576"),
    ([[0, 10**7]], 10**6, "budget_exceeded",
     "graph rows needs 15625000000 units, over the graph_rows budget of 1048576"),
]


@pytest.mark.parametrize("edges, n, code, message", _MALFORMED_GRAPHS)
def test_malformed_graph_files(capsysbinary, monkeypatch, tmp_path, edges, n, code, message):
    monkeypatch.delenv("ZEROLEAK_BUDGET", raising=False)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": n, "edges": edges}))
    for argv in (("info", "--graph", str(path)), ("product", "--op", "or", "--graph", "fixture:k2", "--graph", str(path))):
        exit_code, out, err = run_main(capsysbinary, *argv)
        assert (exit_code, out) == (2 if code == "budget_exceeded" else 1, b"")
        error = json.loads(err)["error"]
        assert (error["code"], error["message"]) == (code, message)


@pytest.mark.parametrize("argv, what", [
    (("info", "--graph", "PATH"), "graph"),
    (("bounds-approx", "--graph", "fixture:c5", "--theta", "PATH"), "graph"),
    (("leakage-eval", "--graph", "fixture:c5", "--mapping", "PATH"), "mapping"),
    (("bounds-multi", "--graph", "fixture:c5", "--budget", "table:PATH"), "budget table"),
])
def test_deeply_nested_json_is_a_json_error(capsysbinary, tmp_path, argv, what):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_main(capsysbinary, *(a.replace("PATH", str(path)) for a in argv))
    assert (code, out) == (1, b"")
    error = json.loads(err)["error"]
    assert error["code"] == "bad_json"
    assert error["message"].startswith(f"{what} file {path} is not valid JSON: ")


def test_oracle_default_checks(capsysbinary):
    code, out, _ = run_main(
        capsysbinary,
        "oracle",
        "--graph", "fixture:c5",
        "--theta", "fixture:p3",
        "--trials", "5",
        "--grid", "3",
    )
    assert code == 0
    obj = json.loads(out)
    names = [r["check"] for r in obj["reports"]]
    assert names == ["duality", "multi-guess-floor", "merge-closure", "packing"]
    assert all(r["status"] in ("pass", "estimate") for r in obj["reports"])
    check_schema("oracle", out)


def test_floor_check_builds_no_prior_grid(capsysbinary):
    # it reads only the row denominator; the 2,220,075-point grid on 20
    # symbols at resolution 8 once refused it with budget_exceeded
    code, out, err = run_main(
        capsysbinary, "oracle", "multi-guess-floor", "--graph", "fixture:c20", "--grid", "8", "--trials", "5"
    )
    assert code == 0 and err == b""
    (report,) = json.loads(out)["reports"]
    assert report["status"] == "pass"


def test_floor_check_meters_the_units_it_deals(capsysbinary):
    # 5 sequences times a million units per trial, checked before any is dealt
    code, out, err = run_main(capsysbinary, "oracle", "multi-guess-floor", "--graph", "fixture:c5", "--grid", "1000000")
    assert code == 2 and out == b""
    assert json.loads(err)["error"]["detail"]["budget"] == "scheme_units"


def test_oracle_explicit_check(capsysbinary):
    code, out, _ = run_main(capsysbinary, "oracle", "duality", "--graph", "fixture:k3")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["reports"]) == 1 and obj["reports"][0]["status"] == "pass"
    check_schema("oracle", out)


def test_oracle_usage_errors(capsysbinary):
    code, _, err = run_main(capsysbinary, "oracle", "levitation", "--graph", "fixture:c5")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "usage"
    code, _, err = run_main(capsysbinary, "oracle")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "usage"
    code, _, err = run_main(capsysbinary, "oracle", "packing", "--graph", "fixture:c5")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "usage"


def test_oracle_failure_exit_code(capsysbinary, monkeypatch):
    def fake_duality(gamma, t):
        return {"check": "duality", "status": "fail", "witness": {"t": t}, "lhs": "2/1", "rhs": "1/1"}

    # the CLI reads the check off the oracle module at call time
    monkeypatch.setattr("zeroleak.oracle.verify_eta_duality", fake_duality)
    code, out, _ = run_main(capsysbinary, "oracle", "duality", "--graph", "fixture:k2")
    assert code == 3
    assert json.loads(out)["reports"][0]["status"] == "fail"
    check_schema("oracle", out)


def test_out_matches_stdout(capsysbinary, tmp_path):
    out_path = str(tmp_path / "result.json")
    code, stdout, _ = run_main(capsysbinary, "chif", "--graph", "fixture:c7")
    code2, empty, _ = run_main(capsysbinary, "chif", "--graph", "fixture:c7", "--out", out_path)
    assert code == code2 == 0 and empty == b""
    assert open(out_path, "rb").read() == stdout


def _answering_argvs(tmp_path):
    """One argv per subcommand, after its name, that answers on exit 0."""
    two = {"t": 1, "codewords": ["a", "b"], "rows": [["1/1", "0/1"], ["0/1", "1/1"], ["1/1", "0/1"]]}
    mapping = write_json(tmp_path, "two.json", two)
    return {
        "info": ["--graph", "fixture:c5"],
        "product": ["--graph", "fixture:k2", "--graph", "fixture:k2", "--op", "or"],
        "chif": ["--graph", "fixture:c5"],
        "alpha": ["--graph", "fixture:c5"],
        "mis": ["--graph", "fixture:c5"],
        "leakage-eval": ["--graph", "fixture:e3", "--mapping", mapping],
        "leakage-optimal": ["--graph", "fixture:c5"],
        "scheme": ["--graph", "fixture:fig1"],
        "merge": ["--graph", "fixture:e3", "--mapping", mapping, "a", "b"],
        "bounds-multi": ["--graph", "fixture:c5", "--budget", "const:1"],
        "bounds-approx": ["--graph", "fixture:c5", "--theta", "fixture:c5"],
        "bounds-multi-approx": ["--graph", "fixture:c5", "--theta", "fixture:c5", "--budget", "const:1"],
        "oracle": ["--graph", "fixture:c5", "duality"],
    }


def test_every_subcommand_reports_an_unwritable_out_as_a_json_error(capsysbinary, tmp_path):
    argvs = _answering_argvs(tmp_path)
    # a new subcommand fails here until it has an argv above
    assert argvs.keys() == _SUBCOMMANDS.keys()
    for name, argv in argvs.items():
        code, out, err = run_main(capsysbinary, name, *argv)
        assert code == 0 and out and err == b"", name
        # a file in a missing directory, then a directory
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            code, out, err = run_main(capsysbinary, name, *argv, "--out", str(target))
            assert (code, out) == (1, b""), (name, target)
            obj = json.loads(err)
            jsonschema.validate(obj, load_schema("error"))
            assert obj["error"]["code"] == "unwritable_file", (name, target)


def test_fixture_files_are_canonical():
    from importlib import resources

    for name in ("fig1", "fig1_theta", "petersen"):
        raw = resources.files("zeroleak.fixtures").joinpath(f"{name}.json").read_bytes()
        g = resolve_fixture(name)
        assert canonical_json_bytes(g) == raw


def test_budget_exceeded_exit_code():
    code, out, err = run_proc(
        "mis", "--graph", "fixture:c7", env_extra={"ZEROLEAK_BUDGET": "10"}
    )
    assert code == 2 and out == b""
    obj = json.loads(err)
    assert obj["error"]["code"] == "budget_exceeded"
    assert obj["error"]["detail"]["limit"] == 10


def test_optimal_witness_size_is_checked_before_it_is_built(capsysbinary):
    # 3125 sequences times 3125 product sets, far over the default budget
    code, out, err = run_main(capsysbinary, "leakage-optimal", "--graph", "fixture:c5", "--t", "5")
    assert code == 2 and out == b""
    error = json.loads(err)["error"]
    assert error["code"] == "budget_exceeded"
    assert error["detail"]["budget"] == "witness_cells"


def test_power_length_is_metered_on_a_one_vertex_graph(capsysbinary):
    # every size is 1 here, so only counting the t factors can stop the loops
    code, out, err = run_main(capsysbinary, "leakage-optimal", "--graph", "fixture:e1", "--t", "100000000")
    assert code == 2 and out == b""
    assert json.loads(err)["error"]["detail"]["budget"] == "mis_enumeration"


def test_a_long_power_of_one_vertex_answers(capsysbinary):
    code, out, err = run_main(capsysbinary, "leakage-optimal", "--graph", "fixture:e1", "--t", "1000000")
    assert code == 0 and err == b""
    obj = json.loads(out)
    assert obj["log2_of"] == "1/1" and obj["witness_matches"] is True


def test_a_long_mapping_is_a_row_count_mismatch(capsysbinary, tmp_path):
    # 2**20000 sequences against 3 rows: too many digits to print
    rows = [["1/1", "0/1"], ["0/1", "1/1"], ["1/1", "0/1"]]
    path = write_json(tmp_path, "long.json", {"t": 20000, "codewords": ["a", "b"], "rows": rows})
    for args in (("leakage-eval",), ("merge", "a", "b")):
        code, out, err = run_main(capsysbinary, args[0], "--graph", "fixture:k2", "--mapping", path, *args[1:])
        assert code == 1 and out == b"", args
        error = json.loads(err)["error"]
        assert error["code"] == "dimension_mismatch"
        assert error["message"] == "mapping has 3 rows but the graph gives 2**20000 length-20000 sequences"


def test_a_long_floor_check_is_metered_before_its_prior(capsysbinary):
    code, out, err = run_main(capsysbinary, "oracle", "multi-guess-floor", "--graph", "fixture:c5", "--t", "2000")
    assert code == 2 and out == b""
    assert json.loads(err)["error"]["detail"]["budget"] == "mis_enumeration"


def test_a_long_exponential_floor_check_is_metered_before_its_guess_count(capsysbinary):
    # 2**t guesses, alpha**t and the floor (5/2)**t are each millions of bits here
    code, out, err = run_main(
        capsysbinary, "oracle", "multi-guess-floor", "--graph", "fixture:c5", "--budget", "exp:2/1", "--t", "30000000"
    )
    assert code == 2 and out == b""
    error = json.loads(err)["error"]
    assert error["code"] == "budget_exceeded"
    assert error["detail"]["budget"] == "mis_enumeration"


def test_a_guess_count_past_the_conversion_limit_is_a_json_error(capsysbinary):
    # 3**100000 guesses, 47,713 digits: the message gives the digit count
    code, out, err = run_main(
        capsysbinary, "oracle", "multi-guess-floor", "--graph", "fixture:c5", "--budget", "poly:100000", "--t", "3"
    )
    assert code == 1 and out == b""
    error = json.loads(err)["error"]
    assert error["code"] == "inadmissible_budget"
    assert error["message"] == "g(t), a 47713-digit number, exceeds the 2**3 independent vertices available"


@pytest.mark.parametrize(
    "budget, shown",
    [("poly:5", "=243"), ("poly:1000000000", "=3**1000000000")],
    ids=["short", "billion"],
)
def test_a_huge_polynomial_floor_check_names_its_count(capsysbinary, budget, shown):
    # 3**(10**9) guesses are screened by bit length and named, never built
    code, out, err = run_main(
        capsysbinary, "oracle", "multi-guess-floor", "--graph", "fixture:c5", "--budget", budget, "--t", "3"
    )
    assert code == 1 and out == b""
    error = json.loads(err)["error"]
    assert error["code"] == "inadmissible_budget"
    assert error["message"] == f"g(t){shown} exceeds the 2**3 independent vertices available"


def test_a_huge_polynomial_degree_is_screened_by_size(capsysbinary):
    # 2**(10**9) against alpha**t: bit lengths decide without building the power
    started = time.perf_counter()
    code, out, err = run_main(capsysbinary, "bounds-multi", "--graph", "fixture:c5", "--budget", "poly:1000000000")
    assert time.perf_counter() - started < 5
    assert (code, out) == (1, b"")
    assert json.loads(err)["error"]["code"] == "inadmissible_budget"


def test_a_long_table_budget_is_metered_on_a_one_vertex_graph(capsysbinary, tmp_path):
    # each cap builds a t-factor product, so a table of T entries costs about
    # T**2 / 2 factors; one meter across the caps stops it within the budget
    table = write_json(tmp_path, "table.json", {"values": [1] * 8000})
    code, out, err = run_main(
        capsysbinary,
        "bounds-multi-approx",
        "--graph", "fixture:e1",
        "--theta", "fixture:e1",
        "--budget", f"table:{table}",
    )
    assert code == 2 and out == b""
    assert json.loads(err)["error"]["detail"]["budget"] == "mis_enumeration"


def test_graph_rows_guard_precedes_allocation(capsysbinary, tmp_path, monkeypatch):
    # 130 neighbour rows of 130 bits take 390 words
    n = 130
    graph = write_json(tmp_path, "path.json", {"n": n, "edges": [[v, v + 1] for v in range(n - 1)]})
    mapping = write_json(tmp_path, "one.json", {"t": 1, "codewords": ["all"], "rows": [["1/1"]] * n})
    monkeypatch.setenv("ZEROLEAK_BUDGET", "389")
    code, out, err = run_main(capsysbinary, "leakage-eval", "--graph", graph, "--mapping", mapping)
    assert code == 2 and out == b""
    error = json.loads(err)["error"]
    assert error["code"] == "budget_exceeded"
    assert error["detail"]["budget"] == "graph_rows"
    monkeypatch.setenv("ZEROLEAK_BUDGET", "390")
    code, out, err = run_main(capsysbinary, "leakage-eval", "--graph", graph, "--mapping", mapping)
    assert code == 1 and json.loads(err)["error"]["code"] == "invalid_mapping"


def test_integers_past_the_conversion_limit_are_domain_errors(capsysbinary, tmp_path):
    digits = "9" * 5000
    graph = tmp_path / "big_n.json"
    graph.write_text('{"n": %s, "edges": []}' % digits)
    mapping = write_json(tmp_path, "big.json", {"t": 1, "codewords": ["a"], "rows": [[f"{digits}/{digits}"]]})
    calls = [
        (("alpha", "--graph", str(graph)), "bad_json"),
        (("leakage-eval", "--graph", "fixture:e1", "--mapping", mapping), "bad_rational"),
        (("bounds-multi", "--graph", "fixture:c5", "--budget", f"exp:{digits}/1"), "bad_rational"),
    ]
    for argv, expected in calls:
        code, out, err = run_main(capsysbinary, *argv)
        assert code == 1 and out == b""
        error = json.loads(err)
        jsonschema.validate(error, load_schema("error"))
        assert error["error"]["code"] == expected


def test_fixture_edge_guard_precedes_allocation(capsysbinary, monkeypatch):
    # k100 lists 4950 edges; the check comes before the list is built
    monkeypatch.setenv("ZEROLEAK_BUDGET", "4949")
    code, out, err = run_main(capsysbinary, "chif", "--graph", "fixture:k100")
    assert code == 2 and out == b""
    error = json.loads(err)["error"]
    assert error["code"] == "budget_exceeded"
    assert error["detail"] == {"budget": "fixture_edges", "limit": 4949}
    monkeypatch.setenv("ZEROLEAK_BUDGET", "4950")
    code, out, err = run_main(capsysbinary, "chif", "--graph", "fixture:k100")
    assert code == 0 and err == b""
    assert json.loads(out)["chi_f"] == "100/1"


# coprime and odd, so 1/P + 1/Q = (P + Q) / (P Q) has 4001 digits over 8001
P, Q = 10**4000 + 1, 10**4000 + 3


@pytest.mark.parametrize(
    "row, message",
    [
        (
            [f"1/{P}", f"1/{Q}"],
            "row 0 sums to a fraction with a 4001-digit numerator and a 8001-digit denominator, not 1",
        ),
        (
            [f"-1/{P}", f"{P + 1}/{P}"],
            "row 0 entry a negative fraction with a 1-digit numerator and a 4001-digit denominator outside [0, 1]",
        ),
    ],
    ids=["sum", "entry"],
)
def test_a_long_fraction_in_a_mapping_fault_is_named_by_its_digits(capsysbinary, tmp_path, row, message):
    mapping = write_json(tmp_path, "long_row.json", {"t": 1, "codewords": ["a", "b"], "rows": [row]})
    code, out, err = run_main(capsysbinary, "leakage-eval", "--graph", "fixture:e1", "--mapping", mapping)
    assert code == 1 and out == b""
    error = json.loads(err)
    jsonschema.validate(error, load_schema("error"))
    assert error["error"]["code"] == "bad_mapping" and error["error"]["message"] == message


NINES_1000, NINES_5000 = "9" * 1000, "9" * 5000
LIMIT = sys.get_int_max_str_digits()
BASE_1000 = (
    "exponential budget needs a rational base >= 1,"
    " got a fraction with a 1-digit numerator and a 1000-digit denominator"
)


@pytest.mark.parametrize(
    "argv, table, code, message",
    [
        (("bounds-multi", "--graph", "fixture:c5"), f"exp:1/{NINES_1000}", "bad_budget", BASE_1000),
        (("bounds-multi-approx", "--graph", "fixture:c5", "--theta", "fixture:c5"), f"exp:1/{NINES_1000}",
         "bad_budget", BASE_1000),
        (("oracle", "multi-guess-floor", "--graph", "fixture:c5"), f"exp:1/{NINES_1000}", "bad_budget", BASE_1000),
        (("bounds-multi", "--graph", "fixture:c5"), {"values": [1, -(10**4000)]},
         "bad_budget", "table entries must be integers >= 1, got a negative 4001-digit integer"),
        (("bounds-multi", "--graph", "fixture:c5"), f"const:{NINES_5000}",
         "bad_budget_spec", f"constant budget count {'9' * 24}... has a part over {LIMIT} digits long"),
        (("bounds-multi", "--graph", "fixture:c5"), f"poly:{NINES_5000}",
         "bad_budget_spec", f"polynomial budget degree {'9' * 24}... has a part over {LIMIT} digits long"),
        # numbers of up to 100 digits are printed as they always were
        (("bounds-multi", "--graph", "fixture:c5"), "exp:1/3",
         "bad_budget", "exponential budget needs a rational base >= 1, got Fraction(1, 3)"),
        (("bounds-multi", "--graph", "fixture:c5"), f"const:-{NINES_1000[:100]}",
         "bad_budget", f"constant budget needs a count >= 1, got -{NINES_1000[:100]}"),
        (("bounds-multi", "--graph", "fixture:c5"), {"values": [1], "growth": f"1/{NINES_1000[:100]}"},
         "bad_budget", f"declared growth must be a rational >= 1, got Fraction(1, {NINES_1000[:100]})"),
        (("bounds-multi", "--graph", "fixture:c5"), "const:1.5",
         "bad_budget_spec", "constant budget count must be an integer, got '1.5'"),
    ],
    ids=["exp-multi", "exp-multi-approx", "exp-floor", "table", "const", "poly",
         "short-exp", "short-const", "short-growth", "not-an-integer"],
)
def test_budget_messages_name_long_numbers_by_their_size(capsysbinary, tmp_path, argv, table, code, message):
    budget = table if isinstance(table, str) else "table:" + write_json(tmp_path, "table.json", table)
    exit_code, out, err = run_main(capsysbinary, *argv, "--budget", budget)
    assert exit_code == 1 and out == b""
    error = json.loads(err)
    jsonschema.validate(error, load_schema("error"))
    assert error["error"]["code"] == code and error["error"]["message"] == message


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("leakage-optimal", "--graph", "fixture:c5", "--t", f"-{NINES_1000[:300]}"),
         "bad_power", "power t must be >= 1, got a negative 300-digit integer"),
        (("leakage-optimal", "--graph", "fixture:c5", "--t", NINES_5000),
         "usage", f"argument --t: invalid int value: '{'9' * 24}'..."),
        (("bounds-multi", "--graph", "fixture:c5", "--budget", NINES_1000[:300]),
         "bad_budget_spec", f"budget '{'9' * 24}'... must look like kind:value"),
        (("bounds-multi", "--graph", "fixture:c5", "--budget", "x" * 300 + ":1"),
         "bad_budget_spec", f"unknown budget kind '{'x' * 24}'..."),
        (("bounds-multi", "--graph", "fixture:c5", "--budget", "const:" + "x" * 300),
         "bad_budget_spec", f"constant budget count must be an integer, got '{'x' * 24}'..."),
        (("bounds-multi", "--graph", "fixture:c5", "--budget", "exp:" + "x" * 300),
         "bad_rational", f"cannot parse rational '{'x' * 24}'..."),
        (("bounds-multi", "--graph", "fixture:c5", "--budget", "exp:1/" + "0" * 300),
         "bad_rational", f"zero denominator in '1/{'0' * 22}'..."),
        (("product", "--graph", "fixture:c5", "--graph", "fixture:c5", "--op", "y" * 300),
         "usage", f"argument --op: invalid choice: '{'y' * 24}'... (choose from 'or', 'and')"),
        # numbers of up to 100 digits and texts of up to 100 characters are printed whole
        (("leakage-optimal", "--graph", "fixture:c5", "--t", f"-{NINES_1000[:100]}"),
         "bad_power", f"power t must be >= 1, got -{NINES_1000[:100]}"),
        (("bounds-multi", "--graph", "fixture:c5", "--budget", NINES_1000[:100]),
         "bad_budget_spec", f"budget '{NINES_1000[:100]}' must look like kind:value"),
    ],
    ids=["t", "t-int", "spec", "kind", "const", "rational", "zero-denominator", "choice", "short-t", "short-spec"],
)
def test_messages_name_long_values_by_their_size(capsysbinary, argv, code, message):
    exit_code, out, err = run_main(capsysbinary, *argv)
    assert exit_code == 1 and out == b""
    error = json.loads(err)
    assert error["error"]["code"] == code and error["error"]["message"] == message


def test_answers_past_the_conversion_limit_are_budget_errors(capsysbinary, tmp_path):
    # the leakage has a 5001-digit denominator, though every input part is shorter
    p, q = 10**2500 + 1, 10**2500 + 3
    rows = [[f"1/{p}", f"{p - 1}/{p}"], [f"1/{q}", f"{q - 1}/{q}"]]
    mapping = write_json(tmp_path, "long.json", {"t": 1, "codewords": ["a", "b"], "rows": rows})
    code, out, err = run_main(capsysbinary, "leakage-eval", "--graph", "fixture:e2", "--mapping", mapping)
    assert code == 2 and out == b""
    error = json.loads(err)
    jsonschema.validate(error, load_schema("error"))
    assert error["error"]["code"] == "budget_exceeded"
    assert error["error"]["detail"] == {"budget": "int_max_str_digits", "limit": sys.get_int_max_str_digits()}


def test_subprocess_runs_are_byte_identical():
    commands = [
        ("chif", "--graph", "fixture:petersen"),
        ("mis", "--graph", "fixture:c5"),
        ("oracle", "--graph", "fixture:c5", "--trials", "3", "--grid", "2"),
    ]
    for cmd in commands:
        first = run_proc(*cmd)
        second = run_proc(*cmd)
        assert first == second
        assert first[0] == 0


# The process entry ends with os._exit once stdout and stderr are flushed, so
# these run the CLI as a child and compare every byte with main() in-process.


def test_a_large_piped_answer_arrives_whole(capsysbinary, tmp_path):
    k17 = write_json(tmp_path, "k17.json", {"n": 17, "edges": [[u, v] for u in range(17) for v in range(u + 1, 17)]})
    args = ("product", "--graph", k17, "--graph", k17, "--op", "or")
    code, out, err = run_proc(*args)
    assert (code, err) == (0, b"") and len(out) > 1 << 20
    assert (code, out, err) == run_main(capsysbinary, *args)
    target = tmp_path / "product.json"
    assert run_proc(*args, "--out", str(target)) == (0, b"", b"")
    assert target.read_bytes() == out


def test_error_exits_write_their_whole_error(capsysbinary, tmp_path):
    calls = [
        ("alpha", "--graph", str(tmp_path / "missing.json")),
        ("leakage-optimal", "--graph", "fixture:c5", "--t", "5"),
    ]
    for expected, args in zip((1, 2), calls):
        code, out, err = run_proc(*args)
        assert (code, out) == (expected, b""), args
        assert json.loads(err)["error"]
        assert (code, out, err) == run_main(capsysbinary, *args)


def test_help_text_arrives_whole(capsysbinary):
    for args in (("--help",), ("chif", "--help")):
        code, out, err = run_proc(*args)
        assert (code, err) == (0, b"") and out.endswith(b"\n"), args
        assert (code, out, err) == run_main(capsysbinary, *args)


def test_an_exception_in_main_still_tears_down_normally():
    probe = "import zeroleak.cli as cli; cli.main = lambda: 1 // 0; cli.run_and_exit()"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True)
    assert done.returncode == 1 and done.stdout == b""
    assert done.stderr.startswith(b"Traceback") and b"ZeroDivisionError" in done.stderr


def test_the_cli_registers_no_exit_callback_and_starts_no_thread():
    # os._exit skips atexit callbacks and does not wait for threads, so none may exist
    probe = (
        "import atexit, io, json, sys, threading; registered = []; "
        "atexit.register = lambda *a, **k: registered.append(repr(a)); "
        "import zeroleak.cli as cli; sys.stdout = io.TextIOWrapper(io.BytesIO()); "
        "codes = [cli.main(a) for a in (['chif', '--graph', 'fixture:c5'], ['oracle', '--graph', 'fixture:c5', "
        "'--trials', '2', '--grid', '2'], ['alpha'])]; sys.stdout = sys.__stdout__; "
        "print(json.dumps([codes, registered, threading.active_count()]))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True)
    assert json.loads(done.stdout) == [[0, 0, 1], [], 1]


def test_the_console_script_is_the_module_entry():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as f:
        scripts = re.findall(r'^zeroleak = "zeroleak\.cli:(\w+)"$', f.read(), re.M)
    with open(os.path.join(root, "src", "zeroleak", "cli.py"), encoding="utf-8") as f:
        module_entry = re.findall(r'^if __name__ == "__main__":\n    (\w+)\(\)\n\Z', f.read(), re.M)
    assert scripts == module_entry == ["run_and_exit"]


def test_alpha_on_a_deep_edgeless_graph(capsysbinary, tmp_path):
    # alpha takes every vertex of an edgeless graph at its root node; the MIS
    # enumeration has one branch per node, so its search is 1100 levels deep
    path = write_json(tmp_path, "edgeless.json", {"n": 1100, "edges": []})
    code, out, err = run_main(capsysbinary, "alpha", "--graph", path)
    assert code == 0 and err == b""
    assert json.loads(out) == {"alpha": 1100}
    code, out, err = run_main(capsysbinary, "mis", "--graph", path)
    assert code == 0 and err == b""
    assert json.loads(out) == {"alpha": 1100, "mis": [list(range(1100))]}


def test_alpha_on_a_large_graph_with_one_edge(capsysbinary, tmp_path):
    path = write_json(tmp_path, "one_edge.json", {"n": 8192, "edges": [[0, 1]]})
    code, out, err = run_main(capsysbinary, "alpha", "--graph", path)
    assert code == 0 and err == b""
    assert json.loads(out) == {"alpha": 8191}


def test_alpha_on_a_perfect_matching(capsysbinary, tmp_path):
    # the greedy first set meets the root's cover bound, so the search is one node
    path = write_json(tmp_path, "matching.json", {"n": 8192, "edges": [[v, v + 1] for v in range(0, 8192, 2)]})
    code, out, err = run_main(capsysbinary, "alpha", "--graph", path)
    assert code == 0 and err == b""
    assert json.loads(out) == {"alpha": 4096}


def test_oracle_trials_are_checked_before_the_loop(capsysbinary):
    for check in ("merge-closure", "multi-guess-floor"):
        code, out, err = run_main(capsysbinary, "oracle", check, "--graph", "fixture:c5", "--trials", "100000000")
        assert code == 2 and out == b"", check
        error = json.loads(err)["error"]
        assert error["code"] == "budget_exceeded"
        assert error["detail"]["budget"] == "oracle_trials"


def test_vertex_count_guard_precedes_allocation(capsysbinary, tmp_path):
    path = write_json(tmp_path, "huge.json", {"n": 1000000, "edges": []})
    code, out, err = run_main(capsysbinary, "alpha", "--graph", path)
    assert code == 2 and out == b""
    error = json.loads(err)["error"]
    assert error["code"] == "budget_exceeded"
    assert error["detail"]["budget"] == "mis_enumeration"
