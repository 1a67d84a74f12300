"""End-to-end CLI behavior: outputs, determinism, and exit codes."""
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import chasebench as cb
from chasebench import cli, gadgets, gameio, games, info, streaming, verify

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- gen-game


def test_gen_game_matches_golden_file(capsys, tmp_path):
    out = tmp_path / "g.game"
    code, stdout, _ = run_cli(
        capsys, "gen-game", "--seed", "20260825", "--n", "8", "--p", "2", "--output", str(out)
    )
    assert code == 0 and stdout == ""
    assert out.read_text() == (GOLDEN / "intersectsc_n8_p2_seed20260825.game").read_text()


def test_gen_game_stdout_equals_file_output(capsys, tmp_path):
    code, stdout, _ = run_cli(capsys, "gen-game", "--seed", "5", "--n", "6", "--p", "1")
    assert code == 0
    out = tmp_path / "g.game"
    code2, _, _ = run_cli(
        capsys, "gen-game", "--seed", "5", "--n", "6", "--p", "1", "--output", str(out)
    )
    assert code2 == 0
    assert out.read_text() == stdout


def test_gen_game_is_deterministic(capsys):
    _, a, _ = run_cli(capsys, "gen-game", "--seed", "77", "--n", "8", "--p", "2")
    _, b, _ = run_cli(capsys, "gen-game", "--seed", "77", "--n", "8", "--p", "2")
    _, c, _ = run_cli(capsys, "gen-game", "--seed", "78", "--n", "8", "--p", "2")
    assert a == b
    assert c != a


def test_gen_game_kind_inference(capsys):
    _, plain, _ = run_cli(capsys, "gen-game", "--seed", "9", "--n", "8", "--p", "1")
    assert isinstance(gameio.parse_game(plain), games.IntersectScInstance)

    _, with_r, _ = run_cli(capsys, "gen-game", "--seed", "9", "--n", "8", "--p", "1", "--r", "3")
    lpce = gameio.parse_game(with_r)
    assert isinstance(lpce, games.LpceInstance)
    assert lpce.r == 3

    _, with_t, _ = run_cli(capsys, "gen-game", "--seed", "9", "--n", "8", "--p", "1", "--t", "2")
    orl = gameio.parse_game(with_t)
    assert isinstance(orl, games.OrLpceInstance)
    assert orl.t == 2
    # r defaults to the injectivity threshold for n
    assert orl.r == info.c_star_threshold(8)


def test_gen_game_missing_flags(capsys):
    assert run_cli(capsys, "gen-game", "--n", "8", "--p", "1")[0] == 2
    assert run_cli(capsys, "gen-game", "--seed", "1", "--p", "1")[0] == 2
    code, _, err = run_cli(capsys, "gen-game", "--seed", "1", "--n", "8")
    assert code == 2 and "gen-game needs" in err


def test_gen_game_empty_ground_set_exits_2(capsys):
    code, stdout, err = run_cli(capsys, "gen-game", "--seed", "1", "--n", "0", "--p", "1")
    assert code == 2 and stdout == ""
    assert err == "error: ground set must be nonempty\n"


# ------------------------------------------------------------ gen-graph


@pytest.mark.parametrize("gadget,fname", [
    ("distance", "distance_k4_p1_seed31.gs"),
    ("reach", "reach_k4_p1_seed31.gs"),
    ("matching", "matching_k4_p1_seed31.gs"),
])
def test_gen_graph_matches_golden_files(capsys, gadget, fname):
    code, stdout, _ = run_cli(
        capsys, "gen-graph", "--seed", "31", "--k", "4", "--p", "1", "--gadget", gadget
    )
    assert code == 0
    assert stdout == (GOLDEN / fname).read_text()


def test_gen_graph_from_game_file(capsys, tmp_path):
    game = tmp_path / "in.game"
    _, text, _ = run_cli(capsys, "gen-game", "--seed", "4", "--n", "5", "--p", "2")
    game.write_text(text)
    code, stdout, _ = run_cli(capsys, "gen-graph", "--input", str(game), "--gadget", "distance")
    assert code == 0
    stream = gadgets.parse_stream(stdout)
    assert stream == gadgets.build_distance_gadget(gameio.parse_game(text))


def test_gen_graph_input_depth_conflict(capsys, tmp_path):
    game = tmp_path / "in.game"
    _, text, _ = run_cli(capsys, "gen-game", "--seed", "4", "--n", "5", "--p", "2")
    game.write_text(text)
    # depth 2 game corresponds to p=1
    ok = run_cli(capsys, "gen-graph", "--input", str(game), "--p", "1", "--gadget", "reach")
    assert ok[0] == 0
    code, _, err = run_cli(
        capsys, "gen-graph", "--input", str(game), "--p", "2", "--gadget", "reach"
    )
    assert code == 2 and "conflicts" in err


def test_gen_graph_rejects_non_intersect_input(capsys, tmp_path):
    game = tmp_path / "in.game"
    _, text, _ = run_cli(capsys, "gen-game", "--seed", "4", "--n", "5", "--p", "1", "--r", "2")
    game.write_text(text)
    code, _, err = run_cli(capsys, "gen-graph", "--input", str(game), "--gadget", "distance")
    assert code == 2 and "intersectsc" in err


def test_gen_graph_bad_gadget_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-graph", "--seed", "1", "--k", "4", "--p", "1", "--gadget", "mst"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_gen_graph_sampling_needs_seed_and_shape(capsys):
    assert run_cli(capsys, "gen-graph", "--k", "4", "--p", "1", "--gadget", "reach")[0] == 2
    assert run_cli(capsys, "gen-graph", "--seed", "3", "--p", "1", "--gadget", "reach")[0] == 2


# --------------------------------------------------------------- reduce


def test_reduce_roundtrip_through_files(capsys, tmp_path):
    # default r is the injectivity threshold, so the short-circuit stays off
    game = tmp_path / "or.game"
    _, text, _ = run_cli(
        capsys, "gen-game", "--seed", "6", "--n", "512", "--p", "1", "--t", "2"
    )
    game.write_text(text)
    out = tmp_path / "reduced.game"
    code, _, _ = run_cli(
        capsys, "reduce", "--seed", "12", "--input", str(game), "--output", str(out)
    )
    assert code == 0
    reduced = gameio.parse_game(out.read_text())
    assert isinstance(reduced, games.IntersectScInstance)
    assert reduced.n == 512


def test_reduce_sampled_is_deterministic(capsys):
    args = ("reduce", "--seed", "3", "--n", "1024", "--p", "1")
    _, a, _ = run_cli(capsys, *args)
    _, b, _ = run_cli(capsys, *args)
    assert a == b and a.startswith("scgame v1 kind=intersectsc")


@pytest.mark.parametrize(
    "argv, digest",
    [
        # t=2, p=2: runs the inner-layer scatter of the scramble
        (
            ("reduce", "--seed", "9", "--n", "4096", "--p", "2", "--t", "2"),
            "5b1bafdb5b3bb27e7614242b067c79e1aa3c5ebe81852c7dc6c440d352049924",
        ),
        (
            ("reduce", "--seed", "9", "--n", "1024", "--p", "1"),
            "fcb0b1011317452e5b3f8b6edf1313fb9aa975b7736c63283c505638dd9aa2f5",
        ),
        (
            ("verify", "--suite", "reduction", "--seed", "1"),
            "00891a0e01750947390def3547eb5561c44763502cdf17375ed043825d6fa343",
        ),
        # oracles, two_color, the streaming baselines and the good-set mass
        (
            ("verify", "--suite", "gadgets", "--seed", "1"),
            "8fb6b376a36f323c8d714f1066145f10e2b3653f06f99b6f96859f32a0dae3f8",
        ),
        (
            ("verify", "--suite", "streaming", "--seed", "1"),
            "6672e30865fb17fef77e67c06e0e8564b5c6bafa64254ed5f16d725498241f46",
        ),
        (
            ("verify", "--suite", "info", "--seed", "1", "--trials", "200"),
            "6d05b389f1d94a886010151fc88fee1389466fa6ff53975283142d81f929261e",
        ),
        # "answer,passes_used,max_state_bits\n1,1,104\n"
        (
            ("stream-run", "--input", str(GOLDEN / "distance_k4_p1_seed31.gs"), "--alg", "union-find"),
            "768a8805f73853cba5905424121714f32c1b313b4d7e654062bef5e6e635ff26",
        ),
        # parse_game on a golden game file, then the reverse-order transcript
        (
            ("solve-protocol", "--input", str(GOLDEN / "intersectsc_n8_p2_seed20260825.game"),
             "--alg", "reverse", "--dump"),
            "53851d68513d91a1763093332cce7c5699e88f9170db1ae8bc9fffadccf708f6",
        ),
        # "answer,passes_used,max_state_bits\n1,2,56\n"
        (
            ("stream-run", "--input", str(GOLDEN / "reach_k4_p1_seed31.gs"), "--alg", "directed-frontier"),
            "7bfc9f9b606e68292f35cf64c196f6412cdc1578cf9e4d4dbf19e658eeab6a28",
        ),
        # "answer,passes_used,max_state_bits\n1,2,128\n"
        (
            ("stream-run", "--input", str(GOLDEN / "distance_k4_p1_seed31.gs"), "--alg", "bidir-bfs"),
            "5f4e2ea187b38692152dbaf06310ef77fd86558114e9a412b92ebf6137d1673f",
        ),
        # "answer,passes_used,max_state_bits\n1,4,80\n"
        (
            ("stream-run", "--input", str(GOLDEN / "distance_k4_p1_seed31.gs"), "--alg", "forward-bfs"),
            "3da6f3b21d9df56917ac5e44110574fbe957233cae1018b211b0a6d0f6800c90",
        ),
        # a directed stream, also "1,4,80"
        (
            ("stream-run", "--input", str(GOLDEN / "reach_k4_p1_seed31.gs"), "--alg", "forward-bfs"),
            "3da6f3b21d9df56917ac5e44110574fbe957233cae1018b211b0a6d0f6800c90",
        ),
        # "answer,passes_used,max_state_bits\n0,2,192\n"
        (
            ("stream-run", "--input", str(GOLDEN / "matching_k4_p1_seed31.gs"), "--alg", "bidir-bfs"),
            "547a3b5cb6d7de180bf75c18a0a906c0d21085e33608199772ee6eed77aa0e5d",
        ),
        # the three builders at k=400, depth 3: about 480,000 edges each
        (
            ("gen-graph", "--seed", "5", "--k", "400", "--p", "2", "--gadget", "distance"),
            "69f58b8b5a0774af8e8a71a1bae19b02e86545a5b8144efddf795b29b736e6e1",
        ),
        (
            ("gen-graph", "--seed", "5", "--k", "400", "--p", "2", "--gadget", "reach"),
            "909277d3042a2501f3222a077ab237076209f4a5ac4255a2534bc410546ffb6d",
        ),
        (
            ("gen-graph", "--seed", "5", "--k", "400", "--p", "2", "--gadget", "matching"),
            "d506918ce601b637d4343eeb214493c444eb85ea86b8a932b94a7224a235d3fd",
        ),
    ],
)
def test_reduction_outputs_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reduce_infeasible_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "reduce", "--seed", "1", "--n", "64", "--p", "2", "--t", "2", "--r", "9"
    )
    assert code == 3
    assert "infeasible parameters" in err


def test_reduce_shortcircuit_prints_witness(capsys, tmp_path):
    const = games.FunctionTable.constant(512, 0)
    item_bad = games.LpceInstance(
        games.PcInstance(512, 1, (const,)),
        games.PcInstance(512, 1, (games.FunctionTable.identity(512),)),
        3,
    )
    game = tmp_path / "or.game"
    game.write_text(gameio.serialize_game(games.OrLpceInstance(1, (item_bad,))))
    code, stdout, _ = run_cli(capsys, "reduce", "--seed", "2", "--input", str(game))
    assert code == 0
    assert stdout == "shortcircuit answer=1 witness=item0,side0,layer0\n"


def test_reduce_rejects_wrong_input_kind(capsys, tmp_path):
    game = tmp_path / "in.game"
    _, text, _ = run_cli(capsys, "gen-game", "--seed", "4", "--n", "5", "--p", "1")
    game.write_text(text)
    code, _, err = run_cli(capsys, "reduce", "--seed", "1", "--input", str(game))
    assert code == 2 and "orlpce" in err


# ------------------------------------------------------- solve-protocol


def test_solve_protocol_answer_line(capsys, tmp_path):
    game = tmp_path / "in.game"
    game.write_text((GOLDEN / "intersectsc_n8_p2_seed20260825.game").read_text())
    code, stdout, _ = run_cli(capsys, "solve-protocol", "--input", str(game), "--alg", "forward")
    assert code == 0
    assert stdout == "answer=1 rounds=2 total_bits=36\n"
    code, stdout, _ = run_cli(capsys, "solve-protocol", "--input", str(game), "--alg", "reverse")
    assert code == 0
    assert stdout == "answer=1 rounds=1 total_bits=33\n"


def test_solve_protocol_dump_precedes_answer(capsys, tmp_path):
    game = tmp_path / "in.game"
    game.write_text((GOLDEN / "intersectsc_n8_p2_seed20260825.game").read_text())
    code, stdout, _ = run_cli(
        capsys, "solve-protocol", "--input", str(game), "--alg", "forward", "--dump"
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[-1].startswith("answer=1 ")
    assert all(" bits:" in ln for ln in lines[:-1])
    assert len(lines) == 9  # 8 messages for p=2, then the answer line


def test_solve_protocol_requires_input(capsys):
    code, _, err = run_cli(capsys, "solve-protocol", "--alg", "forward")
    assert code == 2 and "needs --input" in err


def test_solve_protocol_rejects_graph_file(capsys, tmp_path):
    bad = tmp_path / "in.game"
    bad.write_text((GOLDEN / "distance_k4_p1_seed31.gs").read_text())
    code, _, err = run_cli(capsys, "solve-protocol", "--input", str(bad), "--alg", "forward")
    assert code == 2 and "parse error" in err


# ----------------------------------------------------------- stream-run


def test_stream_run_csv_stdout(capsys):
    code, stdout, _ = run_cli(
        capsys, "stream-run", "--input", str(GOLDEN / "distance_k4_p1_seed31.gs"),
        "--alg", "bidir-bfs",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "answer,passes_used,max_state_bits"
    answer, passes, bits = lines[1].split(",")
    assert answer in ("0", "1")
    assert int(passes) >= 1 and int(bits) > 0


def test_stream_run_report_file_and_budget(capsys, tmp_path):
    report = tmp_path / "r.csv"
    code, stdout, _ = run_cli(
        capsys, "stream-run", "--input", str(GOLDEN / "reach_k4_p1_seed31.gs"),
        "--alg", "directed-frontier", "--passes", "1", "--report", str(report),
    )
    assert code == 0 and stdout == ""
    answer, passes, _ = report.read_text().splitlines()[1].split(",")
    # one pass cannot finish a depth-2 chain walk
    assert answer == "none" and passes == "1"


def test_stream_run_union_find_single_pass(capsys):
    code, stdout, _ = run_cli(
        capsys, "stream-run", "--input", str(GOLDEN / "matching_k4_p1_seed31.gs"),
        "--alg", "union-find",
    )
    assert code == 0
    assert stdout.splitlines()[1].split(",")[1] == "1"


def test_stream_run_bidir_on_directed_stream_exits_2(capsys):
    code, stdout, err = run_cli(
        capsys, "stream-run", "--input", str(GOLDEN / "reach_k4_p1_seed31.gs"),
        "--alg", "bidir-bfs",
    )
    assert code == 2 and stdout == ""
    assert err == "error: bidirectional search needs an undirected stream\n"


def test_stream_run_negative_passes_exits_2(capsys):
    code, stdout, err = run_cli(
        capsys, "stream-run", "--input", str(GOLDEN / "distance_k4_p1_seed31.gs"),
        "--alg", "union-find", "--passes", "-1",
    )
    assert code == 2 and stdout == ""
    assert err == "error: pass budget must be non-negative\n"


def test_stream_run_missing_file(capsys):
    code, _, err = run_cli(
        capsys, "stream-run", "--input", "/nonexistent/x.gs", "--alg", "union-find"
    )
    assert code == 2 and "error" in err


# ----------------------------------------------------------- size guard

OVER_THE_CAP = {
    "gen-graph-k": ("gen-graph", "--seed", "1", "--k", "1000000000", "--p", "1", "--gadget", "distance"),
    "gen-game-t": ("gen-game", "--seed", "1", "--n", "4", "--p", "1", "--t", str(2**70)),
    "gen-game-n": ("gen-game", "--seed", "1", "--n", str(2**40), "--p", "1"),
    # 2**26 tables of two entries each: small arrays, but one Python object per table
    "gen-game-tiny-tables": ("gen-game", "--seed", "1", "--n", "2", "--p", str(2**25), "--r", "3"),
    "reduce-t": ("reduce", "--seed", "1", "--n", "4096", "--p", "1", "--t", str(2**40)),
}


def _refuse(*args, **kwargs):
    raise AssertionError("drew or allocated past the size guard")


@pytest.mark.parametrize("name", sorted(OVER_THE_CAP))
def test_commands_over_the_size_cap_exit_3_before_drawing(capsys, monkeypatch, name):
    for sampler in ("sample_intersect_sc", "sample_uniform_lpce", "sample_uniform_or_lpce"):
        monkeypatch.setattr(games, sampler, _refuse)
    code, stdout, err = run_cli(capsys, *OVER_THE_CAP[name])
    assert code == 3 and stdout == ""
    assert err.startswith("infeasible parameters: ") and "over the cap" in err


def test_stream_run_over_the_size_cap_exits_3_before_running(capsys, monkeypatch, tmp_path):
    path = tmp_path / "huge.gs"
    path.write_text(f"graphstream v1 undirected nv={10**18} ne=1 src=0 dst=1 p=0\n0 1\n")
    monkeypatch.setattr(streaming, "run_streaming", _refuse)
    code, stdout, err = run_cli(capsys, "stream-run", "--input", str(path), "--alg", "union-find")
    assert code == 3 and stdout == ""
    assert err.startswith("infeasible parameters: nv") and "over the cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-game", "--seed", "1", "--n", str(-(2**40)), "--p", "1"),
        ("gen-game", "--seed", "1", "--n", "4", "--p", "-1", "--t", str(-(2**70))),
        ("gen-graph", "--seed", "1", "--k", str(2**40), "--p", "-1", "--gadget", "reach"),
    ],
)
def test_nonpositive_sizes_stay_usage_errors(capsys, argv):
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2 and stdout == "" and err.startswith("error: ")


def test_memory_error_exits_3(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(games, "sample_intersect_sc", exhausted)
    code, stdout, err = run_cli(capsys, "gen-game", "--seed", "1", "--n", "4", "--p", "1")
    assert code == 3 and stdout == ""
    assert err == "infeasible parameters: out of memory\n"


# --------------------------------------------------------------- verify


def test_verify_writes_csv_and_exits_0(capsys, tmp_path):
    report = tmp_path / "v.csv"
    code, stdout, err = run_cli(
        capsys, "verify", "--suite", "gadgets", "--seed", "5", "--trials", "30",
        "--report", str(report),
    )
    assert code == 0 and stdout == "" and err == ""
    text = report.read_text()
    assert text == verify.to_csv(verify.run_suite("gadgets", 5, trials=30))
    assert text.splitlines()[0] == "suite,check,measured,threshold,passed"


def test_verify_info_at_few_trials_exits_0(capsys):
    # the sampler-law row draws 6000 samples whatever --trials is
    code, _, err = run_cli(capsys, "verify", "--suite", "info", "--seed", "1", "--trials", "40")
    assert code == 0 and err == ""


def test_verify_failure_exits_1(capsys, monkeypatch):
    def rigged(name, seed, trials=None):
        return [verify.CheckResult(name, "rigged", 1, "=0", False)]

    monkeypatch.setattr(cli.verify, "run_suite", rigged)
    code, stdout, err = run_cli(capsys, "verify", "--suite", "info", "--seed", "1")
    assert code == 1
    assert "FAILED info/rigged" in err
    assert "false" in stdout


def test_verify_needs_seed(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "info")
    assert code == 2 and "needs --seed" in err


@pytest.mark.parametrize(
    "suite,trials", [("protocols", "-1"), ("streaming", "-3"), ("info", "0")]
)
def test_verify_rejects_trials_below_one(capsys, suite, trials):
    code, stdout, err = run_cli(
        capsys, "verify", "--suite", suite, "--seed", "1", "--trials", trials
    )
    assert code == 2 and stdout == ""
    assert err == f"error: trials must be at least 1, got {trials}\n"


@pytest.mark.parametrize(
    "suite,trials",
    [
        ("protocols", 2**70),
        ("reduction", 2**70),
        ("gadgets", 2**70),
        ("streaming", 2**70),
        ("all", 2**70),
        ("info", 10**6 + 1),
    ],
)
def test_verify_over_the_trial_cap_exits_3_before_any_suite(capsys, monkeypatch, suite, trials):
    monkeypatch.setattr(cli.verify, "run_suite", _refuse)
    code, stdout, err = run_cli(
        capsys, "verify", "--suite", suite, "--seed", "1", "--trials", str(trials)
    )
    assert code == 3 and stdout == ""
    assert err == f"infeasible parameters: trials={trials} is over the cap of {10**6} trials\n"


def test_verify_at_the_trial_cap_runs(capsys, monkeypatch):
    seen = []

    def record(name, seed, trials=None):
        seen.append(trials)
        return [verify.CheckResult(name, "recorded", trials, "any", True)]

    monkeypatch.setattr(cli.verify, "run_suite", record)
    code, _, err = run_cli(capsys, "verify", "--suite", "gadgets", "--seed", "1", "--trials", "1000000")
    assert code == 0 and err == "" and seen == [10**6]


# ----------------------------------------------------- parser plumbing


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "chasebench.cli", "gen-game", "--seed", "1", "--n", "4", "--p", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("scgame v1 kind=intersectsc n=4 p=1\n")


@pytest.mark.parametrize(
    "demo", sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py")), ids=lambda p: p.stem
)
def test_demo_smoke(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "stream_gadgets_multipass":
        assert "resumed run answer: 1" in proc.stdout


def test_malformed_game_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("scgame v1 kind=lpce n=2 p=1 r=oops\n")
    code, _, err = run_cli(capsys, "solve-protocol", "--input", str(bad), "--alg", "forward")
    assert code == 2 and "parse error" in err
