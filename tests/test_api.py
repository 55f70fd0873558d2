import regretlab


def test_every_public_name_resolves():
    missing = [name for name in regretlab.__all__ if not hasattr(regretlab, name)]
    assert missing == []
    assert len(set(regretlab.__all__)) == len(regretlab.__all__)
