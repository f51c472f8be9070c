"""Answer explanations for decision support.

The paper frames INFLEX as a tool for "what-if simulation and marketing
decision making" — a setting where a ranked list of anonymous user ids
is a hard sell without provenance.  :func:`explain_answer` reconstructs
*why* each recommended seed ranked where it did: which retrieved index
lists vouch for it, at what ranks, and with how much weight behind
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.index import InflexIndex
from repro.core.query import TimAnswer


@dataclass(frozen=True)
class SeedExplanation:
    """Provenance of one recommended seed.

    Attributes
    ----------
    node:
        The seed's node id.
    final_rank:
        Its position in the answer (0-based).
    supporting_lists:
        Number of retrieved index lists containing it.
    support_weight:
        Total importance weight of those lists (normalized by the total
        retrieved weight; 1.0 = unanimously vouched for).
    mean_rank_in_lists:
        Its average rank within the lists that contain it.
    """

    node: int
    final_rank: int
    supporting_lists: int
    support_weight: float
    mean_rank_in_lists: float


@dataclass(frozen=True)
class AnswerExplanation:
    """Full provenance of a TIM answer."""

    answer: TimAnswer
    seeds: tuple[SeedExplanation, ...]

    def for_node(self, node: int) -> SeedExplanation:
        for explanation in self.seeds:
            if explanation.node == node:
                return explanation
        raise KeyError(f"node {node} is not in the answer")

    def render(self) -> str:
        # Deferred: importing it loads the whole experiments package.
        from repro.experiments.reporting import format_table

        rows = [
            [
                e.final_rank + 1,
                e.node,
                f"{e.supporting_lists}/{self.answer.num_neighbors_used}",
                f"{e.support_weight:.2f}",
                f"{e.mean_rank_in_lists:.1f}",
            ]
            for e in self.seeds
        ]
        return format_table(
            ["rank", "user", "lists vouching", "weight share", "mean rank"],
            rows,
            title=(
                f"Answer provenance ({self.answer.strategy}; "
                f"{self.answer.num_neighbors_used} index lists aggregated)"
            ),
        )


def explain_answer(index: InflexIndex, answer: TimAnswer) -> AnswerExplanation:
    """Reconstruct the provenance of ``answer``'s seeds.

    Uses the neighbor ids/weights recorded on the answer, so it is a
    pure post-hoc computation — no re-querying.
    """
    if not answer.neighbor_ids:
        raise ValueError("answer carries no neighbor provenance")
    lists = [index.seed_lists[i] for i in answer.neighbor_ids]
    weights = (
        np.asarray(answer.neighbor_weights, dtype=np.float64)
        if answer.neighbor_weights
        else np.ones(len(lists))
    )
    total_weight = weights.sum()
    if total_weight <= 0:
        weights = np.ones(len(lists))
        total_weight = float(len(lists))
    explanations = []
    for final_rank, node in enumerate(answer.seeds):
        ranks = []
        support = 0.0
        count = 0
        for weight, seed_list in zip(weights, lists):
            position = seed_list.rank_of(node)
            if position is not None:
                ranks.append(position)
                support += weight
                count += 1
        explanations.append(
            SeedExplanation(
                node=int(node),
                final_rank=final_rank,
                supporting_lists=count,
                support_weight=float(support / total_weight),
                mean_rank_in_lists=(
                    float(np.mean(ranks)) if ranks else float("nan")
                ),
            )
        )
    return AnswerExplanation(answer=answer, seeds=tuple(explanations))
