"""Bad: reset_counters() zeroes counters stats() never reports."""


class ResetsUnreported:
    def __init__(self):
        self.hits = 0
        self.misses = 0

    def stats(self):
        return {"hits": self.hits}

    def reset_counters(self):  # expect[REP006]
        self.hits = 0
        self.misses = 0


class ResetsARenamedCounterThroughItsHelper:
    def __init__(self):
        self.lookups = 0

    def stats(self):
        return {"hits": self.lookups}

    def reset_counters(self):  # expect[REP006]
        self._reset_locked()

    def _reset_locked(self):
        self.lookups = 0
