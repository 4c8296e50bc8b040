"""Seeded counter-honesty violations with no ``for`` in sight: the
intersection charges the smallest list and rebuilds every other one."""


def intersect(nodes, counter):
    smallest = min(nodes, key=lambda node: len(node.sorted_keys))
    keys = smallest.sorted_keys
    counter.charge(intersection_steps=len(keys))
    others = [set(node.sorted_keys)  # O(sum), uncharged
              for node in nodes if node is not smallest]
    return [v for v in keys if all(v in s for s in others)]


def level(trie, prefix, node):
    seen = frozenset(trie.values(prefix))  # a walk per search node
    return sorted(node.sorted_keys), seen  # and another
