import mosaicseg


def test_every_exported_name_resolves_and_star_import_succeeds():
    missing = [name for name in mosaicseg.__all__ if not hasattr(mosaicseg, name)]
    assert missing == []
    namespace = {}
    exec("from mosaicseg import *", namespace)
    assert set(mosaicseg.__all__) <= set(namespace)
