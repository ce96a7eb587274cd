"""The reference semantics of behaviour: a state's observations along
every input sequence up to a depth, for tests to compare states and
systems by."""


class BehaviourPrefix:
    """The observable behaviour of a state truncated at depth k: a map
    from every input sequence of length <= k to an observed value."""

    def __init__(self, k, entries):
        self.k = k
        self.entries = dict(entries)
        self._key = (k, frozenset(self.entries.items()))

    def __getitem__(self, w):
        return self.entries[tuple(w)]

    def __eq__(self, other):
        return isinstance(other, BehaviourPrefix) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "BehaviourPrefix(k=%d, %d entries)" % (self.k, len(self.entries))


def behaviour_prefix(sys, x, k):
    """Depth-k truncation of the observable behaviour of x."""
    if k < 0:
        raise ValueError("depth must be >= 0")
    entries = {(): sys.observe_value(x)}
    frontier = [((), x)]
    for _ in range(k):
        nxt = []
        for w, y in frontier:
            for i in sys.inputs:
                y2 = sys.step(y, i)
                w2 = w + (i,)
                entries[w2] = sys.observe_value(y2)
                nxt.append((w2, y2))
        frontier = nxt
    return BehaviourPrefix(k, entries)
