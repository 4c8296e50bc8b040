"""Unused suppressions: each silences a finding that no longer exists."""


def scan(relation, out, counter):
    for t in relation.tuples:  # lint: disable=counter-honesty -- left behind after the loop learned to charge
        counter.charge(tuples_scanned=1)
        out.append(t)
    return out


def fold(semiring, rows):  # lint: disable=semiring-protocol -- names a rule that no longer exists
    return semiring.fold(rows)
