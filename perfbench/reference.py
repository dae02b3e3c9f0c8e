"""Expected outputs computed apart from the pipeline under test.

Two kinds of reference:

* the conceptual one-sweep derivation of §3.2
  (:class:`repro.aig.ConceptualEvaluator`), which shares no planner,
  engine or tagging code with the middleware;
* element counts of σ0's report, derived here in plain Python from the
  rows the benchmark generated and wrote: one ``patient`` per distinct
  visitor of the date, and one ``item`` per billing row whose treatment
  is covered and visited by that patient, or reachable from such a
  treatment through ``procedure`` edges.
"""

from __future__ import annotations

from collections import defaultdict


def conceptual_document(aig, sources: dict, root: dict,
                        violation_mode: str = "abort"):
    from repro import ConceptualEvaluator
    return ConceptualEvaluator(aig, list(sources.values()),
                               violation_mode=violation_mode).evaluate(
        dict(root))


class HospitalRows:
    """The rows a hospital workload loaded and wrote, kept beside the
    sources so every report can be counted without the middleware."""

    def __init__(self, dataset):
        self.policy = {ssn: policy for ssn, _, policy in dataset.patient}
        self.visits: dict[str, dict[str, set]] = defaultdict(
            lambda: defaultdict(set))      # date -> ssn -> treatments
        for ssn, trid, date in dataset.visit_info:
            self.add_visit(ssn, trid, date)
        self.cover = set(dataset.cover)
        self.priced = {trid for trid, _ in dataset.billing}
        children: dict[str, set] = defaultdict(set)
        for parent, child in dataset.procedure:
            children[parent].add(child)
        self._children = children
        self._reach: dict[str, frozenset] = {}

    def add_visit(self, ssn: str, trid: str, date: str) -> None:
        self.visits[date][ssn].add(trid)

    def _reachable(self, trid: str) -> frozenset:
        """``trid`` and every treatment below it in the procedure DAG."""
        cached = self._reach.get(trid)
        if cached is None:
            found = {trid}
            for child in self._children.get(trid, ()):
                found |= self._reachable(child)
            cached = self._reach[trid] = frozenset(found)
        return cached

    def counts(self, date: str) -> tuple[int, int]:
        """Expected ``(patient elements, item elements)`` for ``date``."""
        patients = 0
        items = 0
        for ssn, treatments in self.visits.get(date, {}).items():
            policy = self.policy.get(ssn)
            if policy is None:
                continue
            patients += 1
            billed: set = set()
            for trid in treatments:
                if (policy, trid) in self.cover:
                    billed |= self._reachable(trid)
            items += len(billed & self.priced)
        return patients, items


def element_counts(document) -> tuple[int, int]:
    patients = items = 0
    for node in document.iter():
        if node.tag == "patient":
            patients += 1
        elif node.tag == "item":
            items += 1
    return patients, items


def hospital_problems(document, aig, rows: HospitalRows,
                      date: str) -> list[str]:
    """What is wrong with one σ0 report: DTD conformance, σ0's key and
    inclusion constraints, and the element counts."""
    from repro import check_constraints, validate_tree
    problems = [f"DTD: {error}" for error in validate_tree(document,
                                                           aig.dtd)[:3]]
    problems += [f"constraint: {violation}" for violation in
                 check_constraints(document, aig.constraints)[:3]]
    expected = rows.counts(date)
    found = element_counts(document)
    if found != expected:
        problems.append(f"(patient, item) counts {found} != {expected} "
                        f"computed from the rows")
    return problems
