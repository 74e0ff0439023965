"""scripts/export_models.py, run in-process: its files are the CLI's bytes."""

import importlib.util
from pathlib import Path

from linkspace.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "export_models.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("export_models", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_export_models_writes_the_cli_bytes_and_counts(tmp_path, capsys, meshes):
    _load_script().main(["--out", str(tmp_path)])
    printed = capsys.readouterr().out.splitlines()
    stems = [rep.spec.replace(",", "_") for rep, _, _ in meshes]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{stem}.{ext}" for stem in stems for ext in ("obj", "json")
    )
    for (rep, _, _), stem in zip(meshes, stems):
        assert main(["mesh", rep.spec]) == 0
        assert (tmp_path / f"{stem}.obj").read_bytes() == capsys.readouterr().out.encode()
        assert main(["classify", rep.spec, "--format", "json"]) == 0
        assert (tmp_path / f"{stem}.json").read_bytes() == capsys.readouterr().out.encode()
    # the table closes the output: one row per pentagon, (V,E,F) last
    rows = [line.split() for line in printed[-len(meshes) :]]
    assert printed[-len(meshes) - 1].split() == ["pentagon", "moduli", "space", "(V,E,F)"]
    for (rep, _, mesh), fields in zip(meshes, rows):
        v, e, f = mesh.complex.f_vector()
        assert fields[0] == rep.spec
        assert " ".join(fields[1:-1]) == rep.classification
        assert fields[-1] == f"({v},{e},{f})"
