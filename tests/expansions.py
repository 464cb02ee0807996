"""The perturbed walk's two node expansions, seen and forced, shared by the test modules."""

import contextlib
import logging


@contextlib.contextmanager
def _expansions():
    """The expansion of every walk run inside, as the rinclose logger's debug line names it."""
    taken = []

    class Recorder(logging.Handler):
        def emit(self, record):
            message = record.getMessage()
            if message.startswith("walk: "):
                taken.append(message.split()[1])

    logger, handler = logging.getLogger("rinclose"), Recorder()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield taken
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


@contextlib.contextmanager
def _forced(mp, expansion):
    """Every walk inside takes this expansion ("sort" or "mask"), patched through
    the MonkeyPatch mp: the sort with no window count allowed, the mask walk
    with any count and any height allowed."""
    import rinclose.cvc

    if expansion == "sort":
        mp.setattr(rinclose.cvc, "_WINDOWS", -1)
    else:
        mp.setattr(rinclose.cvc, "_WINDOWS", 1 << 62)
        mp.setattr(rinclose.cvc, "_TALL", 1 << 62)
    with _expansions() as taken:
        yield
    assert set(taken) <= {expansion}, (expansion, taken)  # no walk if the screen keeps nothing
