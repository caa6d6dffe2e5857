"""Round-trip tests for the paper's Table 1 categorization."""

import pytest

from repro.rma.actions import AccumulateOp, ActionCategory, OpKind, SyncKind
from repro.rma.table1 import (
    TABLE1,
    categories_of,
    operations_in_category,
    render_table1,
)


def test_categories_of_round_trips_every_entry():
    for entry in TABLE1:
        assert categories_of(entry.language, entry.operation) == entry.categories


def test_operations_in_category_round_trips_every_entry():
    for entry in TABLE1:
        for category in entry.categories:
            assert entry in operations_in_category(category, entry.language)
            assert entry in operations_in_category(category)


def test_entries_never_leak_into_foreign_categories():
    for entry in TABLE1:
        for category in ActionCategory:
            if category not in entry.categories:
                assert entry not in operations_in_category(category, entry.language)


def test_unknown_operation_has_no_categories():
    assert categories_of("mpi3", "MPI_Does_not_exist") == ()
    assert categories_of("chapel", "MPI_Put") == ()


def test_atomics_are_both_put_and_get():
    # The paper lists atomic read-modify-write functions in both rows.
    for op in ("MPI_Get_accumulate", "MPI_Fetch_and_op", "MPI_Compare_and_swap"):
        cats = categories_of("mpi3", op)
        assert ActionCategory.PUT in cats and ActionCategory.GET in cats


def test_every_language_covers_all_synchronization_categories():
    for language in ("mpi3", "upc", "fortran2008"):
        for category in (
            ActionCategory.LOCK,
            ActionCategory.UNLOCK,
            ActionCategory.GSYNC,
            ActionCategory.FLUSH,
        ):
            assert operations_in_category(category, language), (
                f"{language} has no {category.value} operation"
            )


def test_render_table1_mentions_every_operation_and_category():
    rendered = render_table1()
    for entry in TABLE1:
        assert entry.operation in rendered
    for category in ActionCategory:
        assert any(line.startswith(category.value) for line in rendered.splitlines())


@pytest.mark.parametrize(
    ("kind", "put_like", "get_like", "atomic"),
    [
        (OpKind.PUT, True, False, False),
        (OpKind.GET, False, True, False),
        (OpKind.ACCUMULATE, True, False, True),
        (OpKind.GET_ACCUMULATE, True, True, True),
        (OpKind.FETCH_AND_OP, True, True, True),
        (OpKind.COMPARE_AND_SWAP, True, True, True),
    ],
)
def test_runtime_opkinds_match_declared_categories(kind, put_like, get_like, atomic):
    assert kind.is_put_like is put_like
    assert kind.is_get_like is get_like
    assert kind.is_atomic is atomic
    assert OpKind(kind.value) is kind


@pytest.mark.parametrize(
    ("kind", "category", "closes_epoch"),
    [
        (SyncKind.LOCK, ActionCategory.LOCK, False),
        (SyncKind.UNLOCK, ActionCategory.UNLOCK, True),
        (SyncKind.FLUSH, ActionCategory.FLUSH, True),
        (SyncKind.FLUSH_ALL, ActionCategory.FLUSH, True),
        (SyncKind.GSYNC, ActionCategory.GSYNC, True),
        (SyncKind.BARRIER, ActionCategory.GSYNC, False),
    ],
)
def test_runtime_synckinds_match_declared_categories(kind, category, closes_epoch):
    assert kind.category is category
    assert kind.closes_epoch is closes_epoch
    assert SyncKind(kind.value) is kind


@pytest.mark.parametrize(
    ("op", "combining"),
    [
        (AccumulateOp.REPLACE, False),
        (AccumulateOp.SUM, True),
        (AccumulateOp.PROD, True),
        (AccumulateOp.MIN, True),
        (AccumulateOp.MAX, True),
        (AccumulateOp.NO_OP, False),
    ],
)
def test_accumulate_ops_declare_whether_they_combine(op, combining):
    # Combining puts are the ones a replay must not apply twice (§4.2).
    assert op.combining is combining
    assert AccumulateOp(op.value) is op
