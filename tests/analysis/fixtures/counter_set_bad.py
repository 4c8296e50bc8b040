"""Seeded counter-honesty violations with no ``for`` in sight: the
intersection charges the smallest list and rebuilds every other one."""


def intersect(value_lists, counter):
    value_lists = sorted(value_lists, key=len)
    smallest = value_lists[0]
    counter.charge(intersection_steps=len(smallest))
    others = [set(lst) for lst in value_lists[1:]]  # O(sum), uncharged
    return [v for v in smallest if all(v in s for s in others)]


def level(trie, prefix, node):
    seen = frozenset(trie.values(prefix))  # a walk per search node
    return sorted(node.sorted_keys), seen  # and another
