import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_block_runs_verbatim(capsys):
    section = README.read_text().split("## Python API", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "ProteinScore(protein_id=" in out
    assert "TruthScore(sensitivity=" in out


def test_readme_cli_table_lists_the_flags_each_command_reads():
    # besides --deterministic and --out-dir, which every command takes
    from dataclasses import fields

    from markerscreen.cli import COMMANDS, RunConfig

    flags = {f.name: f.metadata["flag"] for f in fields(RunConfig) if f.metadata}

    table = README.read_text().split("| command | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for command, cell in re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M):
        shared = re.findall(r"the `(\w+)` flags", cell)
        listed[command] = sorted(sum((listed[c] for c in shared), re.findall(r"--[\w-]+", cell)))
    assert listed == {command: sorted(flags[setting] for setting in settings)
                      for command, (_, settings) in COMMANDS.items()}
