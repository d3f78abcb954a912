from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_block_runs_verbatim(capsys):
    section = README.read_text().split("## Python API", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "ProteinScore(protein_id=" in out
    assert "TruthScore(sensitivity=" in out
