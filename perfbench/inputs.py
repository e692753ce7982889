"""Deterministic benchmark inputs, generated once per checkout.

Each world is built from fixed generation seeds by the repository's own
test generators (``tests/panelgen.py`` and ``make_random_model`` in
``tests/conftest.py``).  Files are cached under ``perfbench/_work`` and
their sha256 digests are pinned in ``perfbench/digests.json``, so an edit
to a generator shows up as a changed input, not as a speed-up.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
DIGESTS = ROOT / "perfbench" / "digests.json"
INSTITUTION_CONFIG = ROOT / "demo" / "config-institution.yaml"

COSTED_SEED = 11  # the panel test_07 backtests; its 2 % bound holds on it
COSTED_YEARS = (2006, 12)  # first calendar year, number of years
INSTITUTION_SEED = 0
INSTITUTION_I0 = 60_000.0


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_costed(out: Path) -> None:
    import yaml

    import panelgen

    spec = panelgen.make_costed_world()
    start, years = COSTED_YEARS
    panel = panelgen.generate(spec, start_year=start, n_years=years, seed=COSTED_SEED)
    with open(out / "config.yaml", "w") as fh:
        yaml.safe_dump(dict(spec.config), fh)
    panel.write_records_csv(out / "records.csv")
    panel.write_reserve_csv(out / "reserve.csv")
    panelgen.write_salary_scale_csv(out / "scale.csv", panelgen.COSTED_SALARY_SCALE)


def _write_institution(out: Path) -> None:
    from conftest import make_random_model
    from markovpop.config import load_run_config

    import panelgen

    cfg = load_run_config(INSTITUTION_CONFIG)
    model = make_random_model(
        cfg.space, cfg.characteristics, seed=INSTITUTION_SEED, i0=INSTITUTION_I0, with_r=True
    )
    model.save(out / "model.json")
    scale = {code: 400_000.0 + 25_000.0 * i for i, code in enumerate(cfg.space.categories[1:])}
    panelgen.write_salary_scale_csv(out / "scale.csv", scale)


WORLDS = {
    "costed": (_write_costed, ("config.yaml", "records.csv", "reserve.csv", "scale.csv")),
    "institution": (_write_institution, ("model.json", "scale.csv")),
}


def paths(world: str) -> dict[str, Path]:
    """Input files of a world by role (file stem), generated or not."""
    files = {Path(f).stem: WORK / "inputs" / world / f for f in WORLDS[world][1]}
    if world == "institution":
        files["config"] = INSTITUTION_CONFIG
    return files


def generate(world: str) -> None:
    """(Re)write a world's files; a partial write never replaces a good cache."""
    for d in (ROOT / "src", ROOT / "tests"):
        if str(d) not in sys.path:
            sys.path.insert(0, str(d))
    final = WORK / "inputs" / world
    tmp = WORK / "inputs" / f".{world}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    WORLDS[world][0](tmp)
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)


def digests(world: str) -> dict[str, str]:
    return {role: sha256(p) for role, p in sorted(paths(world).items())}


def prepare(world: str) -> tuple[dict[str, str], list[str]]:
    """Make sure a world's inputs exist and match the pinned digests.

    Returns (digests, mismatched roles).  A cached file that fails its
    digest is regenerated once before it counts as a mismatch.
    """
    pinned = json.loads(DIGESTS.read_text())[world]
    if not all(p.exists() for p in paths(world).values()):
        generate(world)
    found = digests(world)
    if found != pinned:
        generate(world)
        found = digests(world)
    bad = sorted(role for role in pinned if found.get(role) != pinned[role])
    return found, bad
