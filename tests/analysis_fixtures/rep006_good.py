"""Good: every reset counter is reported, gauges live only in stats()."""


class GoodCounters:
    def __init__(self):
        self.hits = 0
        self.misses = 0

    def stats(self):
        # "entries" is a gauge: reported, never reset
        return {"hits": self.hits, "misses": self.misses, "entries": 3}

    def reset_counters(self):
        self._reset_locked()

    def _reset_locked(self):
        self.hits = 0
        self.misses = 0
