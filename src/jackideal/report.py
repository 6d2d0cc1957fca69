"""Machine-readable results for the verification suites.

Suites never abort on the first failure: every case lands in the report and
the caller decides what a failure means (the CLI turns it into exit code 1).
"""


class Report:
    """One suite run: named cases with pass/fail status and details."""

    def __init__(self, suite, params=None):
        self.suite = suite
        self.params = dict(params or {})
        self.cases = []

    def add(self, case_id, ok, **detail):
        self.cases.append({"id": case_id,
                           "status": "pass" if ok else "fail",
                           "detail": detail})
        return ok

    @property
    def npass(self):
        return sum(1 for c in self.cases if c["status"] == "pass")

    @property
    def nfail(self):
        return len(self.cases) - self.npass

    def all_pass(self):
        return self.nfail == 0

    def failures(self):
        return [c for c in self.cases if c["status"] == "fail"]

    def to_obj(self):
        return {"suite": self.suite,
                "params": self.params,
                "cases": self.cases,
                "summary": {"pass": self.npass, "fail": self.nfail}}

    def text_lines(self):
        lines = ["suite %s  params %s" % (self.suite, self.params)]
        for c in self.cases:
            line = "  %-4s %s" % (c["status"].upper(), c["id"])
            if c["status"] == "fail" and c["detail"]:
                line += "  %s" % (c["detail"],)
            lines.append(line)
        lines.append("summary: %d pass, %d fail" % (self.npass, self.nfail))
        return lines

    def __repr__(self):
        return "Report(%s: %d pass, %d fail)" % (self.suite, self.npass, self.nfail)

