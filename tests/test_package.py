"""The package's public surface."""

import ast
from pathlib import Path

import carsfisher


def test_all_names_resolve_without_duplicates():
    names = carsfisher.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(carsfisher, name)]
    assert missing == []


def test_one_estimator_per_job():
    # the estimators take array-valued records, so there are no per-list
    # twins, and the QFI needs no PSF geometry record
    for name in ("fi_direct_many", "fi_spade_many", "PsfGeometry", "psf_geometry"):
        assert name not in carsfisher.__all__
        assert not hasattr(carsfisher, name)


def test_package_imports_neither_scipy_nor_mpmath():
    # both may be installed for the test oracles, but neither is a dependency
    forbidden = {"scipy", "mpmath"}
    offenders = []
    for path in sorted(Path(carsfisher.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {r}" for r in roots
                          if r in forbidden]
    assert offenders == []
