from interlace.verification import SUITES, run_suites


def test_seeded_suites_repeat_exactly():
    # a seeded run draws everything from its own generator: two runs agree
    # bit for bit, so no helper may keep state between calls
    def run():
        results = run_suites(list(SUITES), seed=3, scale=0.05)
        return [(suite, r.name, r.passed, r.detail, repr(r.worst)) for suite, r in results]

    first = run()
    assert len(first) > 40
    assert run() == first
