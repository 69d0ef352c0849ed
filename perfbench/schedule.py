"""Item order within a pass.

The host's speed drifts over seconds, so a class of similar items run
back to back is timed in one short window.  Spreading every class evenly
over the pass makes each latency percentile sample the whole pass.
"""


def interleave(groups):
    """Merge the groups so each is spread evenly, keeping each group's order."""
    keyed = [((i + 0.5) / len(g), n, i, item)
             for n, g in enumerate(groups) for i, item in enumerate(g)]
    return [item for *_, item in sorted(keyed, key=lambda k: k[:3])]
