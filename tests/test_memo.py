"""The memo scope: clearing it changes no answer, in any query order."""

from functools import partial

from depthlab.complexity import TimeBound, k_stage
from depthlab.semimeasure import oracle_average
from depthlab.toyvm import MEMO, diagonal

T = TimeBound.poly(10, 1)

QUERIES = {
    "k": [partial(k_stage, s, stage, None, 14)
          for s in ("", "0", "1", "01", "110") for stage in (100, 2, 0)],
    "avg": [partial(oracle_average, s, T, 12, 4) for s in ("", "1", "01")],
    "diagonal": [partial(diagonal, e, stage)
                 for e in range(0, 300, 7) for stage in (50, 1, 0)],
}


def answers(order, isolated=False):
    out = {}
    for name in order:
        out[name] = []
        for query in QUERIES[name]:
            if isolated:
                MEMO.reset()
            out[name].append(query())
    return out


def memo_sizes():
    return {name: len(memo) for name, memo in vars(MEMO).items()}


def test_reset_empties_every_memo():
    answers(QUERIES)
    assert set(memo_sizes()) == {"diagonal", "tables", "evaluators"}
    assert all(memo_sizes().values())
    MEMO.reset()
    assert set(memo_sizes().values()) == {0}


def test_answers_do_not_depend_on_memo_state_or_order():
    runs = [answers(QUERIES, isolated=True)]   # every query from an empty memo
    for order in (("k", "avg", "diagonal"), ("diagonal", "avg", "k")):
        MEMO.reset()
        runs.append(answers(order))   # cold
        runs.append(answers(order))   # served from the memo
    assert all(run == runs[0] for run in runs)

