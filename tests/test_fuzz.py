"""Seeded fuzzing of the input boundaries.

Instance, solution and LP texts are mutated with a fixed seed.  Each
mutated instance and solution file goes through the six subcommands that
read files, and ``gen`` and ``worstcase`` take arguments drawn from the
same edge values.  No exception may escape ``cli.main`` and every exit
code must be 0-4.  Each mutated LP text goes to ``parse_lp``, which may
raise only ``LpFormatError``.  A fault found here is pinned as a named
case in ``test_cli.py`` or ``test_milp.py``.
"""

from __future__ import annotations

import random
import time

import pytest

from bpps.cha import BPP_EXACT, BPP_HEURISTIC, cha
from bpps.cli import main
from bpps.core import Instance
from bpps.files import render_instance, render_solution
from bpps.milp import MODEL_VARIANTS, LpFormatError, build_model, parse_lp, render_lp
from conftest import fig1_instance, random_instance

SEED = 20261019
#: Mutated instance and solution files, and mutated LP texts.
FILE_CASES = 120
LP_CASES = 1_500
#: The wall-clock bound each test asserts, in seconds.  The two together
#: take about 4 s on a 2-core host (Python 3.11.7); the bound leaves room
#: for a slower or busier one.
BUDGET_S = 10.0

EDGE_TOKENS = (
    "0", "1", "-1", "2", "3", "+3", "007", "1.5", "1e3", "0x10", "nan", "",
    "2147483647", "2147483648", "1000001", "9" * 30, "x", "#", "BPPS", "BPPS-SOL",
    "é", "\x00", "1 2", ":", "<=", ">=", "=",
)


def mutate(rng: random.Random, text: str) -> str:
    """``text`` after one to three random edits of its lines and tokens."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines = [rng.choice(EDGE_TOKENS)]
        j = rng.randrange(len(lines))
        edit = rng.randrange(8)
        if edit == 0:  # replace one token
            tokens = lines[j].split() or [""]
            tokens[rng.randrange(len(tokens))] = rng.choice(EDGE_TOKENS)
            lines[j] = " ".join(tokens)
        elif edit == 1:
            del lines[j]
        elif edit == 2:
            lines.insert(j, lines[j])
        elif edit == 3:
            k = rng.randrange(len(lines))
            lines[j], lines[k] = lines[k], lines[j]
        elif edit == 4:
            lines.insert(j, " ".join(rng.choices(EDGE_TOKENS, k=rng.randint(0, 3))))
        elif edit == 5:  # change one character
            line = lines[j]
            if line:
                p = rng.randrange(len(line))
                lines[j] = line[:p] + rng.choice("0123456789 -+#:x") + line[p + 1 :]
        elif edit == 6:  # move one token to another line
            tokens = lines[j].split()
            if tokens:
                k = rng.randrange(len(lines))
                moved = tokens.pop(rng.randrange(len(tokens)))
                lines[j] = " ".join(tokens)
                lines[k] = f"{lines[k]} {moved}"
        else:  # cut the text short
            lines = lines[:j]
    return "\n".join(lines) + ("\n" if rng.random() < 0.9 else "")


def base_instances() -> list[Instance]:
    rng = random.Random(SEED)
    stopping = Instance((7, 5, 4, 3) * 4 + (2, 2), 14, (1,) * 16 + (2, 2), (1, 1), (1, 2), 10)
    return [fig1_instance(), stopping] + [random_instance(rng) for _ in range(4)]


def file_commands(rng: random.Random, tmp) -> list[list[str]]:
    inst, sol = str(tmp / "inst.txt"), str(tmp / "inst.sol")
    return [
        ["bounds", "--instance", inst],
        ["cha", "--instance", inst, "--bpp-mode", rng.choice((BPP_EXACT, BPP_HEURISTIC)),
         "--node-limit", rng.choice(("0", "3", "2000")), "--out", str(tmp / "out.sol")],
        ["solve", "--instance", inst, "--method", rng.choice(("auto", "bnb")),
         "--node-limit", "2000", "--time-limit", "1"],
        ["emit-model", "--instance", inst, "--variant", rng.choice(("n", "dag", "ddag", "star")),
         "--out", str(tmp / "model.lp")] + (["--exact-kbar"] if rng.random() < 0.5 else []),
        ["verify", "--instance", inst, "--solution", sol],
        ["report", "--dir", str(tmp)],
    ]


def argument_commands(rng: random.Random, tmp) -> list[list[str]]:
    small = ("-1", "0", "1", "2", "3", "5")
    large = ("30", "200", "2147483647", "3000000000", "x")
    size = ("small", "large")
    return [
        ["gen", "--free-form", "--n", rng.choice(small + ("25", "2147483647")),
         "--m", rng.choice(small), "--d", rng.choice(small + large),
         "--item-size", rng.choice(size), "--setup-size", rng.choice(size),
         "--seed", rng.choice(small), "--out", str(tmp / "gen.txt")],
        ["worstcase", "--family", rng.choice(("prop2", "prop5")),
         "--sweep", f"{rng.choice(small)}:{rng.choice(small)}",
         "--n", rng.choice(small + ("2147483647",)),
         "--r", rng.choice(small + large), "--f1", rng.choice(small + large)],
    ]


def run_cli(argv: list[str], about: str) -> int:
    try:
        code = main(argv)
    except Exception as exc:  # noqa: BLE001 - any escape is the finding
        pytest.fail(f"{argv} raised {exc!r} on {about}")
    assert code in range(5), (argv, code, about)
    return code


def test_mutated_files_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    texts = []
    for inst in base_instances():
        solution, _ = cha(inst, BPP_HEURISTIC)
        texts.append((render_instance(inst), render_solution("inst", solution)))
    (tmp_path / "report").mkdir()
    codes = set()
    for case in range(FILE_CASES):
        inst_text, sol_text = rng.choice(texts)
        if case % 3 != 1:
            inst_text = mutate(rng, inst_text)
        if case % 3 != 0:
            sol_text = mutate(rng, sol_text)
        (tmp_path / "inst.txt").write_text(inst_text, encoding="utf-8")
        (tmp_path / "inst.sol").write_text(sol_text, encoding="utf-8")
        about = f"case {case}: {inst_text!r} / {sol_text!r}"
        for argv in file_commands(rng, tmp_path) + argument_commands(rng, tmp_path / "report"):
            codes.add(run_cli(argv, about))
            capsys.readouterr()
    assert codes == set(range(5))  # the edits reach past the parsers
    assert time.perf_counter() - start < BUDGET_S


def test_mutated_lp_texts_raise_only_lp_format_errors():
    rng = random.Random(SEED)
    start = time.perf_counter()
    texts = [
        render_lp(build_model(inst, variant))
        for inst in base_instances()[:2]
        for variant in MODEL_VARIANTS
    ]
    parsed = 0
    for _ in range(LP_CASES):
        text = mutate(rng, rng.choice(texts))
        try:
            parse_lp(text)
        except LpFormatError:
            continue
        except Exception as exc:  # noqa: BLE001 - any other error is the finding
            pytest.fail(f"parse_lp raised {exc!r} on {text!r}")
        parsed += 1
    assert parsed  # some edits, such as a swapped line, keep the model readable
    assert time.perf_counter() - start < BUDGET_S
