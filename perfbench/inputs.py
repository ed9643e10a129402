"""Seeded inputs: fixed QUBIKOS instance sets, relabelled per seed.

Which instances a seed draws decides most of a run's cost: QUBIKOS
backbones of one device and SWAP count differ several-fold in size.  So
the instance set is generated once from a fixed seed, and ``--seed``
draws a fresh renaming of every circuit's program qubits (plus the
tools' own seeds).  Every run then routes different circuits of the same
size and structure, and the known optimum carries over unchanged.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.qubikos.instance import QubikosInstance

#: Seed of the fixed instance sets; only the relabelling follows --seed.
INSTANCE_SEED = 2025


def relabelled(instance: QubikosInstance,
               rng: random.Random) -> QubikosInstance:
    """``instance`` with program qubit ``q`` renamed ``perm[q]``.

    The circuit, the optimal initial mapping and the section records are
    renamed together, so the certificate still verifies.
    """
    perm = list(range(instance.circuit.num_qubits))
    rng.shuffle(perm)

    def rename_mapping(mapping: Sequence[int]) -> tuple:
        renamed = [0] * len(mapping)
        for program, physical in enumerate(mapping):
            renamed[perm[program]] = physical
        return tuple(renamed)

    circuit = QuantumCircuit(
        instance.circuit.num_qubits,
        [gate.remap({q: perm[q] for q in gate.qubits})
         for gate in instance.circuit.gates],
        name=instance.circuit.name)
    sections = tuple(
        dataclasses.replace(
            section,
            special_prog=tuple(perm[q] for q in section.special_prog),
            mapping_before=rename_mapping(section.mapping_before))
        for section in instance.sections)
    return dataclasses.replace(
        instance, circuit=circuit, sections=sections,
        initial_mapping=rename_mapping(instance.initial_mapping))


def relabel_all(instances: List[QubikosInstance],
                seed: int) -> List[QubikosInstance]:
    rng = random.Random(seed)
    return [relabelled(instance, rng) for instance in instances]
