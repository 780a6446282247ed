"""The counting fixtures of conftest: a later count replaces an earlier
one, so a count kept across it stops moving."""

import numpy as np

from detline import ChiralityOp


def test_a_later_factorization_count_replaces_an_earlier_one(
        count_factorizations):
    first = count_factorizations()
    np.linalg.svd(np.eye(2))
    log = list(first.log)
    second = count_factorizations()
    np.linalg.svd(np.eye(2))
    assert first["svd"] == 1 and first.log == log
    assert second["svd"] == 1


def test_a_later_validation_count_replaces_an_earlier_one(count_validations):
    first = count_validations()
    ChiralityOp((np.eye(1), np.eye(1)))
    log = list(first.log)
    second = count_validations()
    ChiralityOp((np.eye(1), np.eye(1)))
    assert first["gamma^2"] == 1 and first.log == log
    assert second["gamma^2"] == 1
