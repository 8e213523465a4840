from entbroadcast import claims


def _threshold(filter_budget=1):
    (claim,) = [c for c in claims.verify_claims(filter_budget)
                if c.claim_id == "bell.threshold_xi"]
    return claim


def test_bell_threshold_does_not_use_the_closed_form(monkeypatch):
    # the closed-form range contains the expected 1/2 - 2^(-5/4); the claim
    # must find it from the numeric M alone
    expected = _threshold()
    monkeypatch.setattr(claims, "bell_violation_range", lambda p: None)
    got = _threshold()
    assert got.computed == expected.computed
    assert got.verdict == claims.PASS
