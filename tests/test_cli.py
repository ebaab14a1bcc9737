import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

import retnet as rn
from retnet import bounds, cli, generate, model, serialize
from test_display import seeded_trivial


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_trees_count_only(capsys):
    code, out = run(capsys, "trees", "--n", "4", "--mode", "rooted", "--count-only")
    assert code == 0
    assert out.strip() == "15"
    # the closed form, not an enumeration (about 5e38 rooted trees on 30 leaves)
    for mode in ("rooted", "unrooted"):
        code, out = run(capsys, "trees", "--n", "30", "--mode", mode, "--count-only")
        assert code == 0
        assert out.strip() == str(bounds.tree_count(30, mode))


def test_exact_counts_past_the_int_digit_limit(capsys):
    # CPython refuses to write an int of more than 4,300 digits unless the
    # limit is lifted: 3997!! has 6,333 digits and C(1597!!, 2) has 4,426
    code, out = run(capsys, "trees", "--n", "2000", "--count-only")
    assert code == 0
    assert out.strip() == str(bounds.tree_count(2000))
    code, out = run(capsys, "bounds", "--stmt", "tree-set-count", "--n", "800", "--t", "2")
    assert code == 0
    assert json.loads(out)["lhs"] == str(bounds.tree_set_count(800, 2))


def test_trees_stream_jsonl(capsys):
    code, out = run(capsys, "trees", "--n", "3", "--mode", "rooted")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert len(rows) == 3
    assert all("newick" in row for row in rows)


def test_trees_stream_csv(capsys):
    code, out = run(capsys, "trees", "--n", "3", "--mode", "rooted",
                    "--format", "csv")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "newick"
    assert len(lines) == 4


# SHA-256 of the stdout of listing commands, in JSONL and in CSV, recorded
# with the sorted-leaf-set writer and the suppressed representatives: these
# listings are output and must not change with their implementation
# (networks at rooted (3, 2) tie in leaf sets, at (4, 1) they do not)
LISTING_PINS = [
    (["trees", "--n", "5"],
     "73ba32dc64d4fd491db106f7be1912cfb4a446839cb50e80b2e974789766e7c1",
     "3208cd377b13de9668618e5053d360feeaf4fe712c961b25e1e592053670911d"),
    (["trees", "--n", "5", "--mode", "unrooted"],
     "488933208ddac9c820ef971cc1f2e9fd131c31689e7a6e39fe97abd8b5d9d3e2",
     "64816db7da77f64efd88c1d6b24cccc83f3a2b094f16cb1e0b854055c1f6bfd3"),
    (["displayed", "--network", "trivial.enwk"],
     "5ba7c356d0a0b84d33945c4710ff009056b97c1d03cfa39a6b942765ff3f11c1",
     "70b3c2cbaa5d466de44db7d5ba9a770e57238a8ed76d750d655556ff0c5bea26"),
    (["displayed", "--network", "unrooted.json"],
     "8fc37bf9c8a73ad84379837d0faa24a2c9678d295925af866c7ca3e69f6eb3c2",
     "2eccce907d5dc4d669f6b06acccaad5b39e56cd392443a3c504e2c65a71b22f4"),
    (["networks", "--n", "3", "--r", "2"],
     "07568be2723cecbcc3fbfaf118f5b361b972a5a1c09264aa16a36f4f149225cd",
     "648e55caafd194ee02c748210dbdb95577e688f6b94357979bc6a0a9f4db57df"),
    (["networks", "--n", "4", "--r", "1"],
     "065b19add44a29e47238dd18d5904b853936d4c2a6e80640e6b359e2fca85184",
     "e3d2c28b40bddd7abe805e95390e07c5c115227e55b3ba34ec089b7e602eba51"),
]


def test_listing_stdout_is_pinned(tmp_path, capsys):
    N, _ = seeded_trivial(8, 2, 8)  # rooted, with 2^8 switchings
    (tmp_path / "trivial.enwk").write_text(serialize.network_to_enewick(N) + "\n")
    # an unrooted network of N(5, 1) that displays five trees
    (tmp_path / "unrooted.json").write_text(
        '{"edges": [[0, 8], [1, 9], [2, 3], [3, 7], [3, 8], [4, 5], [5, 7], [5, 9], [6, 7], '
        '[8, 9]], "leaves": {"1": 0, "2": 1, "3": 2, "4": 4, "5": 6}, '
        '"nodes": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]}')
    for argv, *digests in LISTING_PINS:
        argv = [str(tmp_path / a) if "." in a else a for a in argv]
        for fmt, digest in zip(("jsonl", "csv"), digests):
            code, out = run(capsys, *argv, "--format", fmt)
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), (argv, fmt)


def test_switchings_count_lists_nothing(tmp_path, capsys):
    # 2^16 switchings: a listing of Switching values peaked at tens of MB
    N, _ = seeded_trivial(8, 3, 5)
    assert model.reticulation_count(N) == 16
    (tmp_path / "n.enwk").write_text(serialize.network_to_enewick(N) + "\n")
    tracemalloc.start()
    try:
        code, out = run(capsys, "switchings", "--network", str(tmp_path / "n.enwk"), "--count-only")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "65536\n")
    assert peak < 2_000_000


def test_networks_count(capsys):
    for argv, count in [(["--n", "3", "--r", "1"], "21"),
                        (["--n", "1", "--r", "3", "--mode", "unrooted", "--no-leaf-connecting"], "1"),
                        (["--n", "2", "--r", "3", "--mode", "unrooted", "--no-leaf-connecting"], "5"),
                        (["--n", "2", "--r", "3", "--mode", "unrooted"], "4")]:
        code, out = run(capsys, "networks", *argv, "--count-only")
        assert code == 0
        assert out.strip() == count, argv


def test_encode_decode_roundtrip(tmp_path, capsys):
    net = tmp_path / "n.enwk"
    net.write_text("((1,(3)#H1),(2,#H1));\n")
    lab = tmp_path / "lab.json"
    lab.write_text('{"edge_labels": [[3, 2, 1]]}')
    code, out = run(capsys, "encode", "--network", str(net), "--labels", str(lab))
    assert code == 0
    tree = tmp_path / "t.nwk"
    tree.write_text(out)
    code, out = run(capsys, "decode", "--tree", str(tree), "--n", "3", "--r", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["network"] == "((1,(3)#H1),(2,#H1));"
    # the sidecar names edges as reading the printed network numbers them
    net.write_text(doc["network"])
    lab.write_text(json.dumps(doc["labels"]))
    code, out = run(capsys, "encode", "--network", str(net), "--labels", str(lab))
    assert code == 0
    assert rn.are_isomorphic(serialize.newick_to_tree(out.strip()),
                             serialize.newick_to_tree(tree.read_text().strip()))


def test_display_and_displayed(tmp_path, capsys):
    net = tmp_path / "n.enwk"
    net.write_text("((1,(3)#H1),(2,#H1));\n")
    tree = tmp_path / "t.nwk"
    tree.write_text("(1,(2,3));\n")
    code, out = run(capsys, "display", "--network", str(net), "--tree", str(tree))
    assert code == 0
    assert out == '{"displays": true, "witness_off_edges": [[3, 2]]}\n'  # the edge 3 -> 2
    code, out = run(capsys, "displayed", "--network", str(net), "--count-only")
    assert code == 0
    assert out.strip() == "2"


# the stdout of `switchings`: each switching's off edges as (u, v) pairs of the
# network as read from its file (the unrooted one is written with some pairs
# reversed and out of order)
SWITCHINGS_PINS = [
    ("((1,(3)#H1),(2,#H1));", [], '{"off_edges": [[3, 2]]}\n{"off_edges": [[5, 2]]}\n'),
    ("((1,(3)#H1),(2,#H1));", ["--format", "csv"], 'off_edges\r\n"[(3, 2)]"\r\n"[(5, 2)]"\r\n'),
    ('{"edges": [[6, 0], [1, 3], [3, 2], [3, 5], [5, 4], [4, 6], [4, 7], [5, 7], [7, 6]], '
     '"leaves": {"1": 0, "2": 1, "3": 2}, "nodes": [0, 1, 2, 3, 4, 5, 6, 7]}', [],
     '{"off_edges": [[4, 5], [4, 6]]}\n{"off_edges": [[4, 5], [4, 7]]}\n'
     '{"off_edges": [[4, 5], [6, 7]]}\n{"off_edges": [[4, 6], [4, 7]]}\n'
     '{"off_edges": [[4, 6], [5, 7]]}\n{"off_edges": [[4, 7], [5, 7]]}\n'
     '{"off_edges": [[4, 7], [6, 7]]}\n{"off_edges": [[5, 7], [6, 7]]}\n'),
]


def test_switchings_print_edge_pairs(tmp_path, capsys):
    net = tmp_path / "net"
    for text, fmt, want in SWITCHINGS_PINS:
        net.write_text(text)
        assert run(capsys, "switchings", "--network", str(net), *fmt) == (0, want)


def test_sidecar_pair_not_in_host(tmp_path, capsys):
    net, lab = tmp_path / "n.enwk", tmp_path / "lab.json"
    net.write_text("((1,(3)#H1),(2,#H1));\n")  # the reticulation 2 has in-edges 3 -> 2 and 5 -> 2
    for doc, err in [('{"edge_labels": [[2, 3, 1]]}', "INVALID_LABELLING]: off edge not in host"),
                     ('{"edge_labels": [[0, 9, 1]]}', "INVALID_LABELLING]: off edge not in host"),
                     # every entry is read before any is looked up in the host
                     ('{"edge_labels": [[2, 3, 1], [3, 2, "x"]]}',
                      "PARSE_ERROR]: edge label entries must be integers, not [3, 2, 'x']")]:
        lab.write_text(doc)
        code = cli.run(["encode", "--network", str(net), "--labels", str(lab)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error [{err}\n")


def test_trivial_reticulation_tags(tmp_path, capsys):
    a = tmp_path / "a.nwk"
    b = tmp_path / "b.nwk"
    a.write_text("(1,(2,3));\n")
    b.write_text("((1,2),3);\n")
    code, out = run(capsys, "trivial", "--trees", str(a), "--trees", str(b))
    assert code == 0
    # (t-1)n reticulations, each tagged once with a subtree, once bare
    assert out.count("#H") == 2 * (2 - 1) * 3


def test_verify_lemmas_csv(capsys):
    code, out = run(capsys, "verify", "--lemmas", "--kmax", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("name,")
    assert all(line.endswith("True") for line in lines[1:])


def test_bounds_counting_lower(capsys):
    code, out = run(capsys, "bounds", "--stmt", "counting-lower",
                    "--n", "64", "--t", "2")
    assert code == 0
    assert json.loads(out)["r"] >= 1


# each is a usage error: exit 2, nothing on stdout, one stderr line
USAGE_ERRORS = [
    [],                                                    # no command
    ["nosuchcommand"],
    ["trees"],                                             # --n missing
    ["trees", "--n", "x"],
    ["displayed", "--network", "no/such/file.enwk"],
    ["worstcase", "--n", "3", "--t", "2", "--samples", "0"],
    ["trees", "--n", "3", "--mo", "rooted"],               # no option prefixes
    ["trees", "--n", "3", "extra"],
    ["bounds", "--stmt", "counting-lower", "--n", "64"],   # --t missing
    ["verify", "--lemmas", "--format", "jsonl"],
    ["verify"],
]


def test_usage_error_exit_2(capsys):
    for argv in USAGE_ERRORS:
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1, argv


def test_help_exits_0_on_stdout(capsys):
    for argv in [["--help"]] + [[name, "--help"] for name in cli._COMMANDS]:
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), argv
        assert captured.out.startswith("usage: retnet"), argv


def test_domain_error_exit_1(tmp_path, capsys):
    code, _ = run(capsys, "verify", "--lemmas", "--kmax", "3")
    assert code == 1
    a, b = tmp_path / "a.nwk", tmp_path / "b.nwk"
    a.write_text("((1,2),(3,(4,5)));\n")
    b.write_text("(1,(2,3));\n")
    cat, cat2 = tmp_path / "cat.nwk", tmp_path / "cat2.nwk"
    tail, tail2 = "(1199,1200)", "(2,1)"
    for x in range(1198, 0, -1):
        tail, tail2 = f"({x},{tail})", f"({1201 - x},{tail2})"
    cat.write_text(tail + ";\n")  # 1,200-leaf caterpillars with different cherries
    cat2.write_text(tail2 + ";\n")
    c3 = tmp_path / "c3.nwk"
    c3.write_text("((1,2),3);\n")
    for argv, err_code in [(["trivial", "--trees", a, "--trees", b], "LEAFSET_MISMATCH"),
                           (["minret", "--trees", a, "--trees", b], "LEAFSET_MISMATCH"),
                           (["minret", "--trees", cat, "--trees", cat2], "BUDGET_EXCEEDED"),
                           (["networks", "--n", "-3", "--r", "3"], None),
                           (["networks", "--n", "0", "--r", "1"], None),
                           (["networks", "--n", "2", "--r", "-1"], None),
                           (["decode", "--tree", c3, "--n", "5", "--r", "-1"], None),
                           # a grid with no point checks nothing, so it must not pass
                           (["verify", "--counts", "--n-max", "0"], None),
                           (["verify", "--counts", "--lemmas", "--r-max", "-1"], None),
                           # a negative t or n once gave a float or a factorial() error
                           (["bounds", "--stmt", "pair-count", "--n", "3", "--t", "-5", "--r", "2",
                             "--mode", "unrooted"], "DOMAIN"),
                           (["bounds", "--stmt", "pair-count", "--n", "3", "--t", "-2", "--r", "1"],
                            "DOMAIN"),
                           (["bounds", "--stmt", "pair-count", "--n", "-3", "--t", "2", "--r", "1"],
                            "DOMAIN")]:
        code = cli.run([str(x) for x in argv])
        captured = capsys.readouterr()
        assert code == 1 and not captured.out
        assert captured.err.startswith(f"error [{err_code}]" if err_code else "error: ")
        assert captured.err.count("\n") == 1


def test_over_budget_refused_before_work(tmp_path, capsys):
    a, b = tmp_path / "a.nwk", tmp_path / "b.nwk"
    up, down = "1", "22"
    for x in range(2, 23):
        up, down = f"({up},{x})", f"({down},{23 - x})"
    a.write_text(up + ";\n")
    b.write_text(down + ";\n")
    code, out = run(capsys, "trivial", "--trees", str(a), "--trees", str(b))
    assert code == 0
    net = tmp_path / "r22.enwk"
    net.write_text(out)  # 22 reticulations: 2^22 switchings
    for argv in (["trees", "--n", "30"], ["trees", "--n", "300000"],
                 ["networks", "--n", "8", "--r", "1"],
                 ["worstcase", "--n", "10", "--t", "3", "--samples", "5"],
                 ["worstcase", "--n", "8", "--t", "2"],
                 ["displayed", "--network", net], ["switchings", "--network", net],
                 ["display", "--network", net, "--tree", a]):
        start = time.perf_counter()
        code = cli.run([str(x) for x in argv])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and not captured.out
        assert captured.err.startswith("error [BUDGET_EXCEEDED]")
        assert captured.err.count("\n") == 1
        assert elapsed < 1, (argv, elapsed)
        if argv[0] == "networks":  # 13!! trees x (14 + 1)^2 moves
            assert "the 135135 x 225 moves that build level 1 " in captured.err


def test_minret_searches_past_the_enumeration_cap(tmp_path, capsys):
    # 12 leaves, one rSPR move apart: N(12, 1) is past the enumeration cap,
    # the first tree's tower is not
    a, b = tmp_path / "a.nwk", tmp_path / "b.nwk"
    up, down = "1", "(1,2)"
    for x in range(2, 13):
        up = f"({up},{x})"
    for x in range(4, 12):
        down = f"({down},{x})"
    a.write_text(up + ";\n")
    b.write_text(f"({down},(3,12));\n")  # leaf 3 regrafted onto 12's edge
    code, out = run(capsys, "minret", "--trees", str(a), "--trees", str(b))
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == 1
    N = serialize.enewick_to_network(doc["witness"])
    for path in (a, b):
        assert rn.displays(N, serialize.newick_to_tree(path.read_text().strip()))[0]


def test_minret_single_tree_needs_no_search(tmp_path, capsys):
    cat = tmp_path / "c13.nwk"
    tail = "(1,2)"
    for x in range(3, 14):
        tail = f"({tail},{x})"
    cat.write_text(tail + ";\n")  # 13 leaves: N(13, 0) is past the enumeration cap
    code, out = run(capsys, "minret", "--trees", str(cat))
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == 0
    assert rn.are_isomorphic(serialize.enewick_to_network(doc["witness"]),
                             serialize.newick_to_tree(tail + ";"))


def test_malformed_json_inputs_exit_1(tmp_path, capsys):
    net = tmp_path / "n.json"
    net.write_text('{"edges": [[0, 1]]}')
    rooted = tmp_path / "n.enwk"
    rooted.write_text("((1,(3)#H1),(2,#H1));\n")
    for doc in ('{"edge_labels": [[3, 2]]}', '{"edge_labels": 5}', '[]',
                '{"edge_labels": [[3, 2, "1"]]}'):
        (tmp_path / "lab.json").write_text(doc)
        code = cli.run(["encode", "--network", str(rooted),
                        "--labels", str(tmp_path / "lab.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error [PARSE_ERROR]") and "Traceback" not in err
    code = cli.run(["displayed", "--network", str(net)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "'leaves'" in err and "Traceback" not in err
    for leaves in ('{"1": 0.9, "2": 1}', '{"1": 0, "2": true}'):
        net.write_text('{"nodes": [0, 1], "edges": [[0, 1]], "leaves": %s}' % leaves)
        code = cli.run(["displayed", "--network", str(net)])
        captured = capsys.readouterr()
        assert code == 1 and not captured.out
        assert captured.err.startswith("error [PARSE_ERROR]") and captured.err.count("\n") == 1


def test_closed_stdout_exits_quietly():
    # the 10,395 rooted 7-leaf trees fill more than a pipe buffer, so the writer
    # meets the closed pipe mid-stream and again at its last flush
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen([sys.executable, "-c", "import retnet.cli; retnet.cli._script_main()",
                             "trees", "--n", "7"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b'{"newick": "((((((1,2),3),4),5),6),7);"}\n'
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")


def test_bad_budget_env_names_variable(monkeypatch, capsys):
    for budget in ("abc", "0", "-1"):
        monkeypatch.setenv("RETNET_BUDGET", budget)
        # a 2-leaf job multiplies out no factor, but still reads the budget
        for argv in (["networks", "--n", "3", "--r", "1", "--count-only"], ["trees", "--n", "2"]):
            # as in a fresh process: a level already built is not checked again
            generate._networks.cache_clear()
            code = cli.run(argv)
            err = capsys.readouterr().err
            assert code == 1
            assert err.count("\n") == 1 and "RETNET_BUDGET" in err
            assert err.startswith("error [DOMAIN]"), (budget, argv, err)
    # a level that a valid run has cached does not hide a bad budget
    argv = ["networks", "--n", "3", "--r", "1", "--count-only"]
    monkeypatch.delenv("RETNET_BUDGET")
    assert run(capsys, *argv) == (0, "21\n")
    monkeypatch.setenv("RETNET_BUDGET", "abc")
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == "error [DOMAIN]: RETNET_BUDGET must be a positive integer, not 'abc'\n"


def test_worstcase_rejects_samples_below_one(capsys):
    for samples in ("0", "-1"):
        code = cli.run(["worstcase", "--n", "3", "--t", "2", "--samples", samples])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error") and "Traceback" not in err


def test_seeded_worstcase_reproducible(capsys):
    _, a = run(capsys, "worstcase", "--n", "3", "--t", "2",
               "--samples", "5", "--seed", "9")
    _, b = run(capsys, "worstcase", "--n", "3", "--t", "2",
               "--samples", "5", "--seed", "9")
    assert a == b


_VALID_INPUTS = ["((1,(3)#H1),(2,#H1));", "(1,(2,3));", "((1,2),(3,4));",
                 '{"edge_labels": [[3, 2, 1]]}',
                 '{"edges": [[2, 1], [3, 0], [3, 2], [5, 2], [5, 4], [6, 3], [6, 5]], '
                 '"leaves": {"1": 0, "2": 4, "3": 1}, "nodes": [0, 1, 2, 3, 4, 5, 6]}']
_NEWICKISH = '(),;#H0123456789-.: {}[]"edgsnlav\n'


@st.composite
def _file_text(draw):
    """Arbitrary text, Newick/JSON-alphabet text, or a valid input with one splice."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.text(max_size=40))
    if kind == 1:
        return draw(st.text(alphabet=_NEWICKISH, max_size=40))
    base = draw(st.sampled_from(_VALID_INPUTS))
    i = draw(st.integers(0, len(base)))
    cut = draw(st.integers(0, 4))
    return base[:i] + draw(st.text(alphabet=_NEWICKISH, max_size=4)) + base[i + cut:]


@given(st.sampled_from(["displayed", "display", "switchings", "trivial", "encode", "decode"]),
       _file_text(), _file_text(), st.integers(-1, 4), st.integers(-1, 3))
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_fuzzed_files_never_traceback(tmp_path, capsys, command, a, b, n, r):
    fa, fb = tmp_path / "a", tmp_path / "b"
    fa.write_text(a)
    fb.write_text(b)
    argv = {"displayed": ["--network", fa],
            "display": ["--network", fa, "--tree", fb],
            "switchings": ["--network", fa],
            "trivial": ["--trees", fa, "--trees", fb],
            "encode": ["--network", fa, "--labels", fb],
            "decode": ["--tree", fa, "--n", n, "--r", r]}[command]
    code = cli.run([command] + [str(x) for x in argv])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
