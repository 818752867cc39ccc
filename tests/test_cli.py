"""The ``python -m repro`` parser: one subparser per command, each with only
the options it reads.  CI's command lines must keep parsing, a flag on the
wrong command or an unknown key exits 2, positionals may follow flags, and
an explicit ``--epochs`` is never replaced."""

import dataclasses
import shlex
from pathlib import Path

import pytest

from repro import __main__ as cli
from repro.core import kinds
from tests.cli_helpers import run_cli

CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def ci_repro_commands() -> list[list[str]]:
    """The argv of every ``python -m repro`` line in the CI workflow
    (folded ``run: >-`` steps joined)."""
    lines, commands, i = CI.read_text().splitlines(), [], 0
    while i < len(lines):
        line, i = lines[i], i + 1
        if line.strip() == "run: >-":
            indent, folded = len(line) - len(line.lstrip()), []
            while i < len(lines) and len(lines[i]) - len(
                    lines[i].lstrip()) > indent:
                folded.append(lines[i].strip())
                i += 1
            line = " ".join(folded)
        if "python -m repro " in line:
            commands.append(shlex.split(line.split("python -m repro ")[1]))
    assert len(commands) >= 17, "CI workflow parsing lost commands"
    return commands


def _id(value):
    return " ".join(value) if isinstance(value, list) else None


@pytest.mark.parametrize("argv", ci_repro_commands(), ids=shlex.join)
def test_ci_command_parses(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
    assert args.handler is cli._commands()[argv[0]][0]


@pytest.mark.parametrize("argv,listed", [
    (["profile", "nope"], "KGNNL"),
    (["memstats", "nope"], "DGCN"),
    (["golden", "nope"], "DGCN"),
    (["golden", "nope", "--shard"], "ARGA-P4"),
    (["trace", "nope"], "DGCN"),
    (["serve", "nope"], "PSAGE-MVL"),
    (["sample", "nope"], "ARGA"),
    (["shard", "nope"], "ARGA-P4"),
    (["insights", "nope"], "DGCN"),
    (["bench", "--workload", "nope"], "KGNNL"),
], ids=_id)
def test_unknown_key_exits_2_listing_keys(capsys, argv, listed):
    res = run_cli(argv, capsys)
    assert (res.code, res.out) == (2, "")
    assert "unknown" in res.err and "'nope'" in res.err.lower()
    assert listed in res.err


@pytest.mark.parametrize("argv", [
    ["golden", "--qps", "5"],
    ["table1", "--metrics"],
    ["trace", "dgcn", "--fanouts", "4,3"],
    ["fig9", "--scale", "test"],
    ["memstats", "dgcn", "-o", "x.json"],
    ["serve", "dgcn", "--epochs", "2"],
    ["bench", "--strict"],
    ["insights", "dgcn", "--jobs", "2"],
    ["sample", "--nodes", "1000"],  # read only with a key
    ["shard", "--feat-dim", "8"],  # the frontier study reads only --seed
    ["shard", "--epochs", "2"],
    ["insights", "--gpus", "2", "--diff", "a.json", "b.json"],
    ["insights", "dgcn", "--diff", "a.json", "b.json"],
    ["insights", "--metrics", "--diff", "a.json", "b.json"],
], ids=_id)
def test_unread_flag_exits_2(capsys, argv):
    res = run_cli(argv, capsys)
    assert res.code == 2
    assert next(a for a in argv if a.startswith("-")) in res.err


@pytest.mark.parametrize("argv,needle", [
    (["golden", "--memory", "DGCN"], "DGCN: ok"),
    (["serve", "--requests", "8", "dgcn"], "serve digest"),
    (["profile", "--scale", "test", "KGNNL"], "== KGNNL"),
], ids=_id)
def test_positional_after_flag(capsys, argv, needle):
    res = run_cli(argv, capsys)
    assert res.code == 0
    assert needle in res.out


@pytest.mark.parametrize("argv", [["serve", "dgcn"], ["shard", "arga-p2"],
                                  ["profile"], ["bench"], ["fig2"]], ids=_id)
def test_omitted_parameters_stay_absent(argv):
    # one source per default: the row (or the library function), never
    # the parser
    args = cli.build_parser().parse_args(argv)
    assert not set(vars(args)) & set(cli.PARAMS)


SAMPLE = ["sample", "arga", "--fanouts", "4,3", "--batch-size", "32"]


@pytest.mark.parametrize("argv,epochs", [
    (SAMPLE + ["--epochs", "1"], 1),
    (["shard", "arga-p2", "--epochs", "1"], 1),
    (SAMPLE, 2),  # the sample row's default
    (["shard", "arga-p2"], 2),  # the named config's
], ids=_id)
def test_header_reports_the_epochs_run(capsys, argv, epochs):
    res = run_cli(argv, capsys)
    assert res.code == 0
    assert res.out.splitlines()[0].endswith(f" epochs={epochs})")


def test_renderer_only_row_gets_a_command(monkeypatch, capsys):
    # a new report kind is a table row plus its renderer; REPORTS is only
    # for extra options, a timeline or a keyless mode
    row = dataclasses.replace(kinds.get("memstats"), name="memcopy")
    monkeypatch.setattr(kinds, "TABLE", (*kinds.TABLE, row))
    monkeypatch.setitem(kinds.KINDS, row.name, row)
    assert "memcopy" not in cli.REPORTS
    assert run_cli(["table1"], capsys).code == 0
    res = run_cli(["memcopy", "dgcn", "--epochs", "1"], capsys)
    assert res.code == 0 and res.out.startswith("== DGCN (scale=test")
    res = run_cli(["memcopy", "nope"], capsys)
    assert res.code == 2 and "unknown workload 'nope'" in res.err


def test_strict_oom_exits_1_with_hint(capsys):
    res = run_cli(["shard", "arga", "--parts", "1", "--nodes", "20000",
                   "--feat-dim", "262144", "--strict"], capsys)
    assert res.code == 1
    assert res.out.startswith("OOM under --strict: simulated HBM exhausted")
    assert res.out.endswith("shard the graph over more --parts, or stage it "
                            "with --offload\n")
