"""Clean twin of counter_set_bad: probe what is already built, or charge
what is rebuilt."""


def intersect(nodes, counter):
    smallest = min(nodes, key=lambda node: len(node.sorted_keys))
    keys = smallest.sorted_keys
    counter.charge(intersection_steps=len(keys))
    probes = [node.children for node in nodes if node is not smallest]
    return [v for v in keys if all(v in probe for probe in probes)]


def rebuild(nodes, counter):
    counter.charge(hash_inserts=sum(len(node.sorted_keys) for node in nodes))
    return [set(node.sorted_keys) for node in nodes]


def level(trie, prefix, node, counter):
    counter.charge(intersection_steps=len(node.sorted_keys))
    return list(node.sorted_keys), sorted(trie.statistics.values())
