def used_by_module():
    pass


def dispatched():
    pass


def used_by_benchmark():
    pass


def used_by_tool():
    pass


def used_by_example():
    pass


def exported():
    pass


def cited():
    return _cited_helper()


def _cited_helper():
    pass


def _registered():
    pass


REGISTRY = {"registered": _registered}


def __dir__():
    pass
