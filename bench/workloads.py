"""The benchmark's workloads and operation classes.

A workload is a backend, a database size and a traffic mix.  Every
workload runs every operation class, because every end-to-end metric is
reported on every workload; what differs is the layer that does the
work and how the run time is divided between the classes.

The database is always generated from the configuration's default
seed: ``--seed`` draws the operation inputs, not the stored data, so
runs with different seeds measure the same database.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

#: Operation classes by catalog id.  A class metric is the geometric
#: mean over the class's operations, so no operation dominates by scale.
CLASSES: Dict[str, Tuple[str, ...]] = {
    "lookup": ("01", "02", "05A", "05B", "06", "07A", "07B", "08"),
    "range": ("03", "04"),
    "closure": ("10", "11", "13", "14", "15", "18"),
    "scan": ("09",),
    "edit": ("12", "16", "17"),
}

CLASS_OF = {op: name for name, ops in CLASSES.items() for op in ops}

#: The paper's repetition count per cold and per warm pass.
PAPER_REPS = 50


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        backend: registry name of the backend under test.
        level: leaf level of the generated database.
        setups: how many times set-up runs (``setup_s`` is their median).
        plan: per class, (repetitions per pass, sequences per round).  A
            fractional second value runs the class every 1/value rounds.
        verify: run ``verify_database`` after set-up.
    """

    name: str
    backend: str
    level: int
    setups: int
    plan: Dict[str, Tuple[int, float]]
    verify: bool = True


def _plan(**overrides: Tuple[int, float]) -> Dict[str, Tuple[int, float]]:
    plan = {name: (PAPER_REPS, 1.0) for name in CLASSES}
    plan["scan"] = (1, 1.0)
    plan.update(overrides)
    return plan


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # 781 nodes, about 270 pages: inside the 512-page pool and the
        # 8192-entry decode cache.
        Workload("oodb-fit", "oodb", 4, setups=3, plan=_plan()),
        # 19 531 nodes, about 6 600 pages: outside both caches.  One scan
        # repetition costs over a second, so it runs every eighth round;
        # closure and edit passes are shortened to keep a round near two
        # seconds, and the cheap classes run several sequences a round so
        # that their medians rest on more than a handful of sequences.
        # verify_database would add 15 s to every run here; the same
        # backend code is verified at levels 4 and 5 by the sibling
        # workloads and every operation is still checked against the
        # oracle.
        Workload(
            "oodb-big", "oodb", 6, setups=1, verify=False,
            plan=_plan(
                lookup=(PAPER_REPS, 5.0), range=(PAPER_REPS, 3.0),
                closure=(10, 2.0), scan=(1, 0.125), edit=(10, 2.0),
            ),
        ),
        # 3 906 nodes; three full-length edit sequences a round take most
        # of the run time, the read classes share the rest.
        Workload(
            "oodb-edit", "oodb", 5, setups=2,
            plan=_plan(
                lookup=(PAPER_REPS, 5.0), range=(PAPER_REPS, 3.0),
                closure=(20, 2.0), edit=(PAPER_REPS, 3.0),
            ),
        ),
        Workload("cs-nav", "clientserver", 5, setups=3, plan=_plan()),
    )
}


def quick(workload: Workload) -> Workload:
    """The smoke-test form: level 3 and five repetitions per pass."""
    return dataclasses.replace(
        workload, level=3, setups=1, verify=True,
        plan={name: (1 if name == "scan" else 5, 1.0) for name in CLASSES},
    )
