import csv
import io

import pytest

from nedist.cli import run

PATH5 = "a b\nb c\nc d\nd e\n"


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "path5.el"
    p.write_text(PATH5)
    return str(p)


def test_dist_simple(capsys):
    assert run(["dist", "--tree1", "(()())", "--tree2", "(()()())"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert run(["dist", "--tree1", "(()())", "--tree2", "(()()())", "--weights", "unit"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_dist_breakdown(capsys):
    code = run(["dist", "--tree1", "((()())())", "--tree2", "((())(()))",
                "--breakdown"])
    out = capsys.readouterr().out
    assert code == 0
    assert "total 1" in out
    assert "level" in out


def test_dist_wplus(capsys):
    run(["dist", "--tree1", "((()())())", "--tree2", "((())(()))",
         "--weights", "wplus"])
    assert capsys.readouterr().out == "2\n"


def test_dist_parse_error_is_data_error(capsys):
    assert run(["dist", "--tree1", "(()", "--tree2", "()"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_flags_are_usage_errors(capsys):
    assert run(["dist", "--tree1", "()"]) == 1
    assert run(["nosuchcommand"]) == 1


def test_ktree(graph_file, capsys):
    assert run(["ktree", "--graph", graph_file, "--node", "a", "--k", "3"]) == 0
    assert capsys.readouterr().out == "((()))\n"


def test_ned(graph_file, capsys):
    code = run(["ned", "--graph1", graph_file, "--node1", "a",
                "--graph2", graph_file, "--node2", "c", "--k", "2"])
    assert code == 0
    assert capsys.readouterr().out == "1\n"


def test_ned_breakdown_ends_with_the_total(graph_file, tmp_path, capsys):
    directed = tmp_path / "path.el"
    directed.write_text("a b\nb c\nc d\n")
    for args in (["--graph1", graph_file, "--graph2", graph_file],
                 ["--graph1", str(directed), "--graph2", str(directed), "--directed"]):
        assert run(["ned", *args, "--node1", "a", "--node2", "c", "--k", "2",
                    "--breakdown"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "total 1"
        assert ("[in tree]" in out) == ("--directed" in args)


def test_ned_unknown_node(graph_file, capsys):
    code = run(["ned", "--graph1", graph_file, "--node1", "zz",
                "--graph2", graph_file, "--node2", "c", "--k", "2"])
    assert code == 1


def test_knn(graph_file, capsys):
    code = run(["knn", "--graph", graph_file, "--k", "2",
                "--query-graph", graph_file, "--query-node", "c",
                "-l", "2", "--count-evals"])
    out = capsys.readouterr().out
    assert code == 0
    assert "evaluations" in out


def test_knn_wplus(tmp_path, capsys):
    # x and p are 1 apart under unit weights and 2 apart under W_PLUS
    p = tmp_path / "xp.el"
    p.write_text("x y\nx z\ny y1\ny y2\np q\np r\nq q1\nr r1\n")
    query = ["knn", "--graph", str(p), "--k", "3", "--query-graph", str(p),
             "--query-node", "x", "-l", "10", "--format", "csv"]
    assert run(query) == 0
    assert "p,1" in capsys.readouterr().out.split()
    assert run(query + ["--weights", "wplus"]) == 0
    assert "p,2" in capsys.readouterr().out.split()


def test_knn_csv_quotes_labels_with_commas_and_quotes(tmp_path, capsys):
    # a label holding a comma or a quote is one quoted field, the quote doubled
    p = tmp_path / "comma.el"
    p.write_text('a,1 b\nb c\nc "d\n')
    assert run(["knn", "--graph", str(p), "--k", "2", "--query-graph", str(p),
                "--query-node", "b", "-l", "4", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == 'node,distance\nb,0\nc,0\n"a,1",1\n"""d",1\n'
    assert list(csv.reader(io.StringIO(out))) == [
        ["node", "distance"], ["b", "0"], ["c", "0"], ["a,1", "1"], ['"d', "1"]]


def test_graphdist(graph_file, capsys):
    assert run(["graphdist", graph_file, graph_file, "--k", "3"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert run(["graphdist", graph_file, graph_file, "--k", "3", "--sample", "0"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_oracle_compare_csv(capsys):
    code = run(["oracle", "--nmax", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tree1,tree2,ted_star,exact_ted_star,exact_ted,exact_ged,wplus"
    assert len(lines) == 11   # 4 trees -> 10 unordered pairs
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] == cells[3]
    assert run(["oracle", "--nmax", "3", "--depth-max", "2",
                "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 7   # (), (()), (()()): 6 pairs
    assert run(["oracle", "--nmax", "3", "--depth-max", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_oracle_compare_rejects_zero_nmax(capsys):
    assert run(["oracle", "--nmax", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: n_max must be")


def test_deanon(graph_file, capsys):
    code = run(["deanon", "--graph", graph_file, "--k", "2", "-l", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "precision 1.0000" in out
    assert run(["deanon", "--graph", graph_file, "--k", "2", "-l", "2",
                "--sample", "0"]) == 1


DEANON_EL = "a b\na c\nb c\nc d\nd e\ne f\nf g\ng h\nc f\n"
DEANON_CSV = """anon_node,true_id,rank,hit
n0,d,4,1
n1,g,7,1
n2,b,3,1
n3,f,1,1
n4,h,7,0
n5,a,2,1
n6,e,4,1
n7,c,4,1
precision 0.8750 (l=2 k=2 queries=8 ties=inclusive ranker=ned)
"""


def test_deanon_csv_and_evaluation_count(tmp_path, capsys):
    path = tmp_path / "deanon.el"
    path.write_text(DEANON_EL)
    argv = ["deanon", "--graph", str(path), "--method", "perturb", "--p", "0.2",
            "--k", "2", "-l", "2", "--seed", "1", "--format", "csv"]
    assert run(argv) == 0
    assert capsys.readouterr().out == DEANON_CSV
    assert run(argv + ["--count-evals"]) == 0
    assert capsys.readouterr().out == DEANON_CSV + "evaluations 20 of 64\n"
    assert run(argv + ["--count-evals", "--ranker", "degree"]) == 0
    assert capsys.readouterr().out.endswith("ranker=degree)\nevaluations 64 of 64\n")


def test_study_k_effect_rejects_zero_queries(capsys):
    assert run(["study", "k-effect", "--nodes", "10", "--edges", "15",
                "--queries", "0"]) == 1
    assert "num_queries" in capsys.readouterr().err


def test_study_scaling_rejects_zero_pairs(capsys):
    assert run(["study", "scaling", "--sizes", "5", "--ks", "2", "--pairs", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pairs_per_bucket" in err


def test_study_scaling_rejects_zero_depth(capsys):
    assert run(["study", "scaling", "--sizes", "5", "--ks", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: k must be")


def test_study_ted_closeness(capsys):
    assert run(["study", "ted-closeness", "--nmax", "4"]) == 0
    assert "equality_ratio" in capsys.readouterr().out
    assert run(["study", "ted-closeness", "--nmax", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_study_rejects_bad_number_lists(capsys):
    assert run(["study", "scaling", "--sizes", "5,x"]) == 1
    assert capsys.readouterr().err == "error: bad integer list '5,x'\n"
    assert run(["study", "k-effect", "--k-range", "1-3"]) == 1
    assert capsys.readouterr().err == "error: bad k range '1-3'\n"


def test_study_k_effect_csv(capsys):
    assert run(["study", "k-effect", "--nodes", "20", "--edges", "30", "--queries", "5",
                "--k-range", "1:3", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "k,queries,mean_nn0,mean_ties", "1,5,20.00,15.00", "2,5,3.20,4.60", "3,5,0.20,3.40"]


def test_study_scaling_csv(capsys):
    assert run(["study", "scaling", "--sizes", "20,40", "--ks", "2,3", "--pairs", "2",
                "--format", "csv"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "size,k,pairs,median_ms,p90_ms,mean_ms"
    # timings vary from run to run, so only the bucket columns are pinned
    assert sorted(row.split(",")[:3] for row in rows) == [
        ["20", "2", "2"], ["20", "3", "2"], ["40", "2", "2"], ["40", "3", "2"]]


def test_weight_file(tmp_path, capsys):
    wf = tmp_path / "w.txt"
    wf.write_text("# level leaf move\n2 1/2 1\n")
    assert run(["dist", "--tree1", "(()())", "--tree2", "(()()())",
                "--weights", str(wf)]) == 0
    assert capsys.readouterr().out == "1/2 (0.5)\n"


def test_bad_weight_file(tmp_path):
    wf = tmp_path / "w.txt"
    wf.write_text("2 1\n")
    assert run(["dist", "--tree1", "()", "--tree2", "()",
                "--weights", str(wf)]) == 2


def test_non_positive_weight_in_a_file_is_a_usage_error(tmp_path, capsys):
    wf = tmp_path / "w.txt"
    wf.write_text("2 0 1\n")
    assert run(["dist", "--tree1", "()", "--tree2", "()", "--weights", str(wf)]) == 1
    assert capsys.readouterr().err == (
        "error: weight for level 2 must be a finite positive number, got Fraction(0, 1)\n")


# a command line reading each kind of input file from the given path
INPUT_FILE_COMMANDS = {
    "graph": lambda path: ["ktree", "--graph", path, "--node", "a", "--k", "2"],
    "weights": lambda path: ["dist", "--tree1", "()", "--tree2", "()", "--weights", path],
}


@pytest.mark.parametrize("kind, message", [
    ("graph", "error: [Errno 2] No such file or directory: "),
    ("weights", "error: cannot read weight file {path}: "),
], ids=["graph", "weights"])
def test_unreadable_input_files_are_data_errors(kind, message, tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert run(INPUT_FILE_COMMANDS[kind](missing)) == 2
    assert capsys.readouterr().err.startswith(message.format(path=missing))


@pytest.mark.parametrize("kind, text, message", [
    pytest.param("graph", "a b\nb c d\n", "error: line 2: expected 2 tokens, got 3: ",
                 id="graph-fields"),
    pytest.param("weights", "2 x 1\n", "error: bad number in weight file {path}: ",
                 id="weights-bad-number"),
    pytest.param("weights", "2 1/0 1\n", "error: bad number in weight file {path}: ",
                 id="weights-zero-denominator"),
    pytest.param("weights", "# level leaf move\n2 1\n",
                 "error: {path}:2: weight lines are 'level w1 w2'", id="weights-fields"),
])
def test_malformed_input_files_are_data_errors(kind, text, message, tmp_path, capsys):
    f = tmp_path / "input.txt"
    f.write_text(text)
    assert run(INPUT_FILE_COMMANDS[kind](str(f))) == 2
    assert capsys.readouterr().err.startswith(message.format(path=f))


def test_weights_past_the_exact_range(tmp_path, capsys):
    # a common denominator of 10 ** 19 scales level 3's move past int64, so
    # the level matches in Python ints: one leaf deleted at level 4
    wf = tmp_path / "w.txt"
    wf.write_text("3 1 9\n4 1.0000000000000000001 1\n")
    assert run(["dist", "--tree1", "(((()()()())()))", "--tree2", "(((())(()()()())))",
                "--weights", str(wf)]) == 0
    assert capsys.readouterr().out == "10000000000000000001/10000000000000000000 (1)\n"


def test_out_file(tmp_path, graph_file):
    target = tmp_path / "result.txt"
    assert run(["dist", "--tree1", "()", "--tree2", "(())",
                "--out", str(target)]) == 0
    assert target.read_text() == "1\n"


def test_byte_identical_repeats(graph_file, capsys):
    args = ["deanon", "--graph", graph_file, "--k", "2", "-l", "2",
            "--method", "perturb", "--p", "0.5", "--seed", "3"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    assert capsys.readouterr().out == first


def test_missing_graph_file(capsys):
    assert run(["ktree", "--graph", "/no/such/file", "--node", "a",
                "--k", "2"]) == 2
