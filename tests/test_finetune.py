import dataclasses
import re

import numpy as np
import pytest

from fsosr import finetune
from fsosr.classifier import build_known_prototypes, init_background
from fsosr.episode import benchmark_config, derive_episode_seed, generate_synthetic, sample_episode
from fsosr.finetune import (
    FinetuneConfig,
    finetune_bank,
    finite_difference,
    max_relative_error,
    prototype_batch_loss,
)
from fsosr.pipeline import RunConfig
from fsosr.procam import mine


def _cos(w, q):
    return float(np.dot(w, q) / (np.linalg.norm(w) * np.linalg.norm(q)))


def ce_of_one(rows, q, label, temperature=10.0):
    """Cross-entropy of one query against one row label."""
    return prototype_batch_loss(
        np.asarray(rows, dtype=float), np.asarray(q, dtype=float)[None, :],
        np.array([label]), np.array([1.0]), temperature,
    )


class TestCeLossCosine:
    """The cross-entropy over temperature-scaled cosine scores that the
    prototype gradient differentiates."""

    def test_symmetric_two_classes_is_ln2(self):
        # both prototypes at the same angle from the query
        loss = ce_of_one([[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0], 0, temperature=3.7)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturation_limit(self):
        loss = ce_of_one([[1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]], [1.0, 0.0], 0, temperature=500.0)
        assert loss < 1e-10

    def test_scalar_oracle(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(5, 6))
        q = rng.normal(size=6)
        temperature = 10.0
        for label in range(5):
            sims = [_cos(w, q) for w in rows]
            z = temperature * np.array(sims)
            expected = float(np.log(np.exp(z - z.max()).sum()) - (z[label] - z.max()))
            got = ce_of_one(rows, q, label, temperature)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_nonnegative_and_rescale_invariant(self):
        rng = np.random.default_rng(1)
        known = rng.normal(size=(4, 5))
        q = rng.normal(size=5)
        base = ce_of_one(known, q, 2)
        assert base >= 0.0
        scaled = ce_of_one(known * 7.5, q * 0.01, 2)
        assert scaled == pytest.approx(base, abs=1e-9)


def _one_step_and_reference(bank, num_known, supports, labels, backgrounds, **settings):
    """bank minus finetune_bank's rows after one epoch at learning rate 1, and
    finite differences of the summed batch loss, with each background item
    labeled with its nearest background row at the start."""
    cfg = FinetuneConfig(epochs=1, learning_rate=1.0, **settings)
    out, _ = finetune_bank(bank, num_known, supports, labels, backgrounds, cfg)
    pseudo = [num_known + int(np.argmax([_cos(w, b) for w in bank[num_known:]])) for b in backgrounds]
    items, item_labels = np.vstack([supports, backgrounds]), np.concatenate([labels, pseudo])
    weights = np.concatenate([np.ones(len(supports)), np.full(len(backgrounds), cfg.bkg_loss_weight)])
    numeric = finite_difference(
        lambda w: prototype_batch_loss(w, items, item_labels, weights, cfg.temperature), bank
    )
    return bank - out, numeric


class TestGradWrtPrototypes:
    """The gradient with respect to the prototype rows, read off the step
    finetune_bank takes in one epoch at learning rate 1."""

    def test_saturated_correct_prediction_has_tiny_gradient(self):
        step, _ = _one_step_and_reference(
            np.array([[1.0, 0.0], [0.0, 1.0]]), 1, np.array([[2.0, 0.0]]), np.array([0]),
            np.array([[0.0, 3.0]]), temperature=400.0,
        )
        assert np.abs(step).max() < 1e-8

    def test_two_class_finite_difference(self):
        rng = np.random.default_rng(2)
        step, numeric = _one_step_and_reference(
            rng.normal(size=(2, 2)), 1, rng.normal(size=(1, 2)), np.array([0]), rng.normal(size=(1, 2))
        )
        assert max_relative_error(step, numeric) < 1e-4

    def test_random_batch_finite_difference(self):
        rng = np.random.default_rng(3)
        bank, supports, backgrounds = rng.normal(size=(7, 16)), rng.normal(size=(9, 16)), rng.normal(size=(4, 16))
        step, numeric = _one_step_and_reference(bank, 5, supports, rng.integers(0, 5, size=9), backgrounds)
        assert max_relative_error(step, numeric) < 1e-4


def _oracle_finetune(weights0, num_known, supports, labels, backgrounds, cfg, pseudo_log=None):
    """Straight-line scalar re-execution of the fine-tuning update rule. The
    background pseudo-labels of every loss evaluation are appended to
    pseudo_log when one is given."""
    weights = weights0.copy()
    trace = []

    def assign(w):
        out = []
        for b in backgrounds:
            sims = [_cos(w[num_known + j], b) for j in range(len(w) - num_known)]
            out.append(num_known + int(np.argmax(sims)))
        return out

    def loss_and_grad(w, pseudo):
        grad = np.zeros_like(w)
        loss_known = 0.0
        loss_background = 0.0
        items = [(s, y, 1.0, True) for s, y in zip(supports, labels)]
        items += [(b, p, cfg.bkg_loss_weight, False) for b, p in zip(backgrounds, pseudo)]
        for q, label, weight, is_support in items:
            sims = np.array([_cos(row, q) for row in w])
            z = cfg.temperature * sims
            z = z - z.max()
            p = np.exp(z) / np.exp(z).sum()
            ce = -np.log(p[label])
            if is_support:
                loss_known += ce / len(supports)
            else:
                loss_background += ce / len(backgrounds)
            for j in range(len(w)):
                coeff = cfg.temperature * (p[j] - (1.0 if j == label else 0.0)) * weight
                wn = np.linalg.norm(w[j])
                qn = np.linalg.norm(q)
                jac = q / (wn * qn) - np.dot(w[j], q) * w[j] / (wn**3 * qn)
                grad[j] += coeff * jac
        if pseudo_log is not None:
            pseudo_log.append(list(pseudo))
        return loss_known, loss_background, grad

    pseudo = None
    for _ in range(cfg.epochs):
        if pseudo is None or cfg.reassign_each_epoch:
            pseudo = assign(weights)
        lk, lb, grad = loss_and_grad(weights, pseudo)
        trace.append(lk + cfg.bkg_loss_weight * lb)
        if cfg.freeze_known:
            weights[num_known:] = weights[num_known:] - cfg.learning_rate * grad[num_known:]
        else:
            weights = weights - cfg.learning_rate * grad
    if cfg.reassign_each_epoch:
        pseudo = assign(weights)
    lk, lb, _ = loss_and_grad(weights, pseudo)
    trace.append(lk + cfg.bkg_loss_weight * lb)
    return weights, trace


class TestFinetuneBank:
    def _toy_inputs(self, seed=4, n_way=3, k_shot=2, dim=6, n_bkg=2):
        rng = np.random.default_rng(seed)
        supports = rng.normal(size=(n_way * k_shot, dim))
        labels = np.repeat(np.arange(n_way), k_shot)
        backgrounds = rng.normal(size=(4, dim))
        known = np.stack([supports[labels == c].mean(axis=0) for c in range(n_way)])
        bank = np.vstack([known, rng.normal(size=(n_bkg, dim))])
        return bank, supports, labels, backgrounds

    def test_zero_learning_rate_is_identity(self):
        bank, supports, labels, backgrounds = self._toy_inputs()
        cfg = FinetuneConfig(epochs=5, learning_rate=0.0)
        out, report = finetune_bank(bank, 3, supports, labels, backgrounds, cfg)
        assert out.tobytes() == bank.tobytes()
        assert len(report.per_epoch_totals) == 6
        assert len(set(report.per_epoch_totals)) == 1

    def test_descent_on_toy_problem(self):
        bank = np.array([[1.0, 0.0], [0.3, -0.4]])
        _, report = finetune_bank(
            bank, 1, np.array([[1.0, 0.0]]), np.array([0]), np.array([[0.0, 1.0]]), FinetuneConfig()
        )
        assert report.per_epoch_totals[-1] < report.per_epoch_totals[0]

    def test_matches_independent_reexecution(self):
        rng = np.random.default_rng(5)
        n_way, k_shot, dim = 5, 5, 8
        supports = rng.normal(size=(n_way * k_shot, dim))
        labels = np.repeat(np.arange(n_way), k_shot)
        backgrounds = rng.normal(size=(10, dim))
        known = np.stack([supports[labels == c].mean(axis=0) for c in range(n_way)])
        bkg_rows = rng.normal(size=(2, dim))
        bank = np.vstack([known, bkg_rows])
        cfg = FinetuneConfig(epochs=7, learning_rate=0.05, bkg_loss_weight=0.2)
        out, report = finetune_bank(bank, n_way, supports, labels, backgrounds, cfg)
        expected_weights, expected_trace = _oracle_finetune(
            np.vstack([known, bkg_rows]), n_way, list(supports), list(labels), list(backgrounds), cfg
        )
        np.testing.assert_allclose(out, expected_weights, atol=1e-9)
        np.testing.assert_allclose(report.per_epoch_totals, expected_trace, atol=1e-9)

    def test_fixed_pseudo_labels_mode(self):
        bank, supports, labels, backgrounds = self._toy_inputs(seed=6)
        cfg = FinetuneConfig(epochs=6, learning_rate=0.05, reassign_each_epoch=False)
        out, report = finetune_bank(bank, 3, supports, labels, backgrounds, cfg)
        expected_weights, expected_trace = _oracle_finetune(
            bank, 3, list(supports), list(labels), list(backgrounds), cfg
        )
        np.testing.assert_allclose(out, expected_weights, atol=1e-9)
        np.testing.assert_allclose(report.per_epoch_totals, expected_trace, atol=1e-9)

    def test_freeze_known_leaves_known_rows(self):
        bank, supports, labels, backgrounds = self._toy_inputs(seed=7)
        cfg = FinetuneConfig(epochs=4, learning_rate=0.1, freeze_known=True)
        out, _ = finetune_bank(bank, 3, supports, labels, backgrounds, cfg)
        np.testing.assert_array_equal(out[:3], bank[:3])
        assert not np.array_equal(out[3:], bank[3:])

    def test_inputs_never_modified(self):
        # the bank is writable, so nothing but the copy stops a step writing it
        bank, supports, labels, backgrounds = self._toy_inputs(seed=8)
        assert bank.flags.writeable
        before = [a.copy() for a in (bank, supports, labels, backgrounds)]
        for freeze_known in (False, True):
            cfg = FinetuneConfig(epochs=3, learning_rate=0.1, freeze_known=freeze_known)
            out, _ = finetune_bank(bank, 3, supports, labels, backgrounds, cfg)
            assert not np.shares_memory(out, bank)
            for after, expected in zip((bank, supports, labels, backgrounds), before):
                assert after.tobytes() == expected.tobytes()

    def test_loss_report_additivity(self):
        bank, supports, labels, backgrounds = self._toy_inputs(seed=9)
        cfg = FinetuneConfig(epochs=3, bkg_loss_weight=0.37)
        _, report = finetune_bank(bank, 3, supports, labels, backgrounds, cfg)
        assert report.total == pytest.approx(
            report.loss_known + 0.37 * report.loss_background, abs=1e-12
        )

    @pytest.mark.parametrize("freeze_known", [False, True])
    @pytest.mark.parametrize("reassign_each_epoch", [True, False])
    def test_total_is_last_curve_entry(self, freeze_known, reassign_each_epoch):
        bank, supports, labels, backgrounds = self._toy_inputs(seed=10)
        cfg = FinetuneConfig(
            epochs=4, learning_rate=0.1, bkg_loss_weight=0.37,
            reassign_each_epoch=reassign_each_epoch, freeze_known=freeze_known,
        )
        _, report = finetune_bank(bank, 3, supports, labels, backgrounds, cfg)
        assert report.total == report.per_epoch_totals[-1]
        assert len(report.per_epoch_totals) == 5

    # The norm-failure tests below run with numpy warnings as errors and under
    # no errstate of their own: finetune_bank stays silent from a bad row or
    # step on, through the steps it still takes before the norm check.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("row, kind", [(0.0, "zero"), (1e300, "non-finite")])
    def test_bad_weight_row_named_by_joint_index(self, row, kind):
        # 3 known rows, so background row 1 is joint row 4
        bank, supports, labels, backgrounds = self._toy_inputs(seed=12)
        bank[3 + 1] = row
        with pytest.raises(ValueError, match=f"before fine-tuning, prototype row 4 has {kind} norm"):
            finetune_bank(bank, 3, supports, labels, backgrounds, FinetuneConfig())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("freeze_known, row", [(False, 0), (True, 1)])
    def test_zero_norm_after_step_names_joint_row_and_epoch(self, freeze_known, row):
        # In one dimension every cosine is +-1 and the row gradient is zero,
        # but the step's two terms are each about 2^60 |w|. With power-of-two
        # settings they cancel exactly and leave a zero row, which the fast
        # norm test must catch as well as a non-finite one.
        bank = np.array([[1.0], [-1.0]])
        cfg = FinetuneConfig(
            epochs=3, learning_rate=2.0**80, temperature=8.0, freeze_known=freeze_known
        )
        with pytest.raises(ValueError, match=re.escape(
            f"after the fine-tune step at epoch 0 (learning rate {2.0**80!r}), "
            f"prototype row {row} has zero norm"
        )):
            finetune_bank(bank, 1, np.array([[1.0]]), np.array([0]), np.array([[-1.0]]), cfg)

    @pytest.mark.filterwarnings("error")
    def test_diverged_step_names_joint_row_and_epoch(self):
        # every step after epoch 0's is NaN as well; the first bad one is named
        bank, supports, labels, backgrounds = self._toy_inputs(seed=13)
        cfg = FinetuneConfig(epochs=3, learning_rate=1e308, freeze_known=True)
        with pytest.raises(
            ValueError,
            match=r"fine-tune step at epoch 0 \(learning rate 1e\+308\), prototype row 3 "
            r"has non-finite norm",
        ):
            finetune_bank(bank, 3, supports, labels, backgrounds, cfg)

    @pytest.mark.filterwarnings("error")
    def test_first_bad_step_is_named_though_later_steps_are_bad(self, monkeypatch):
        # A NaN gradient row makes joint row 4 NaN after the step at epoch 2.
        # From epoch 3 on its NaN logits reach every row through the softmax,
        # so every later step is bad in every row, row 0 first.
        core, calls = finetune._batch_ce, []

        def poisoned(logits, positions, out, *step):
            calls.append(bool(step))
            ce = core(logits, positions, out, *step)
            if len(calls) == 3:
                logits[4] = np.nan
            return ce

        monkeypatch.setattr(finetune, "_batch_ce", poisoned)
        bank, supports, labels, backgrounds = self._toy_inputs(seed=18)
        with pytest.raises(ValueError, match=re.escape(
            "after the fine-tune step at epoch 2 (learning rate 0.002), prototype row 4 has non-finite norm"
        )):
            finetune_bank(bank, 3, supports, labels, backgrounds, FinetuneConfig(epochs=6))
        assert len(calls) == 7  # the steps after the bad one still ran

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("group, index", [("support", 1), ("background", 2)])
    @pytest.mark.parametrize("value, kind", [(0.0, "zero"), (1e300, "non-finite")])
    def test_bad_batch_item_named_by_group(self, group, index, value, kind):
        bank, supports, labels, backgrounds = self._toy_inputs(seed=14)
        supports, backgrounds = supports.copy(), backgrounds.copy()
        (supports if group == "support" else backgrounds)[index] = value
        with pytest.raises(ValueError, match=f"^{group} {index} has {kind} norm"):
            finetune_bank(bank, 3, supports, labels, backgrounds, FinetuneConfig())

    def test_one_epoch_step_is_the_batch_loss_gradient(self):
        # the step fsosr gradcheck checks, at a background weight of its own
        bank, supports, labels, backgrounds = self._toy_inputs(seed=15)
        step, numeric = _one_step_and_reference(bank, 3, supports, labels, backgrounds, bkg_loss_weight=0.2)
        assert max_relative_error(step, numeric) < 1e-6

    def test_no_cosine_matrix_calls(self, monkeypatch):
        # the batch is normalized once at entry; every epoch builds its one
        # score matrix from it instead of re-normalizing through cosine_matrix
        calls = []
        original = finetune.cosine_matrix

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(finetune, "cosine_matrix", counting)
        bank, supports, labels, backgrounds = self._toy_inputs(seed=16)
        finetune_bank(bank, 3, supports, labels, backgrounds, FinetuneConfig(epochs=5))
        assert calls == []
        # the patch does take effect on the module's lookups
        prototype_batch_loss(bank, supports, labels, np.ones(len(labels)), 10.0)
        assert calls == [1]

    def test_last_evaluation_computes_no_coefficients(self, monkeypatch):
        # epochs + 1 loss evaluations, but only the epochs that step need
        # the gradient coefficients
        calls = []
        core = finetune._batch_ce

        def counting(logits, positions, out, *step):
            calls.append(bool(step))
            return core(logits, positions, out, *step)

        monkeypatch.setattr(finetune, "_batch_ce", counting)
        bank, supports, labels, backgrounds = self._toy_inputs(seed=17)
        finetune_bank(bank, 3, supports, labels, backgrounds, FinetuneConfig(epochs=5))
        assert calls == [True] * 5 + [False]


@pytest.fixture(scope="module")
def wide_dataset():
    """The benchmark signal at the ResNet-12 feature shape (5x5x640), with
    just enough classes and items for 10-way episodes."""
    cfg = dataclasses.replace(
        benchmark_config(), num_classes=15, items_per_class=15,
        height=5, width=5, channels=640, fg_regions=None,
    )
    return generate_synthetic(cfg)[0]


def _episode_finetune_inputs(ds, n_way, num_background, index=0):
    """finetune_bank's inputs for one episode of the dataset, built as
    evaluate_episode builds them with RunConfig's defaults."""
    cfg = RunConfig(dataset="in-memory", n_way=n_way, num_background=num_background)
    episode = sample_episode(ds, cfg.episode, derive_episode_seed(cfg.master_seed, index, 0))
    supports = ds.embeddings[episode.support]
    labels = episode.support_labels
    known = build_known_prototypes(supports, labels, cfg.n_way, cfg.k_shot)
    _, backgrounds, _ = mine(ds.values[episode.support].astype(np.float64), known[labels], cfg.procam)
    seed = derive_episode_seed(cfg.master_seed, index, 1)
    bank = np.vstack([known, init_background(ds.channels, "random", num_background, seed, backgrounds)])
    return bank, supports, labels, backgrounds, cfg


def _toy_finetune_inputs(num_background):
    """More batch items (9 supports + 6 backgrounds) than dimensions (4), so
    the batch's Gram matrix is rank-deficient; a large step grows the rows'
    scale past REBASE_SCALE, so the loop re-bases on the current rows."""
    rng = np.random.default_rng(17)
    supports = rng.normal(size=(9, 4))
    labels = np.repeat(np.arange(3), 3)
    known = np.stack([supports[labels == c].mean(axis=0) for c in range(3)])
    bank = np.vstack([known, rng.normal(size=(num_background, 4))])
    cfg = RunConfig(dataset="in-memory", learning_rate=0.05, num_background=num_background)
    return bank, supports, labels, rng.normal(size=(6, 4)), cfg


def _check_against_oracle(monkeypatch, inputs, reassign_each_epoch, freeze_known):
    """finetune_bank's weights, loss curve and the pseudo-labels of every loss
    evaluation match _oracle_finetune at 1e-12, and frozen known rows come
    back bit-identical."""
    bank, supports, labels, backgrounds, run_cfg = inputs
    cfg = FinetuneConfig(
        epochs=run_cfg.epochs,
        learning_rate=run_cfg.learning_rate,
        bkg_loss_weight=run_cfg.bkg_loss_weight,
        temperature=run_cfg.temperature,
        reassign_each_epoch=reassign_each_epoch,
        freeze_known=freeze_known,
    )
    # record the background pseudo-labels of every loss evaluation
    seen = []
    core = finetune._batch_ce

    def spy(logits, positions, *rest, **kwargs):
        # item i's label sits at flat position label * items + i
        seen.append(list(positions[len(supports):] // len(positions)))
        return core(logits, positions, *rest, **kwargs)

    monkeypatch.setattr(finetune, "_batch_ce", spy)
    num_known = len(bank) - run_cfg.num_background
    out, report = finetune_bank(bank, num_known, supports, labels, backgrounds, cfg)
    expected_pseudo = []
    expected_weights, expected_trace = _oracle_finetune(
        bank, num_known, list(supports), list(labels), list(backgrounds), cfg, expected_pseudo,
    )
    np.testing.assert_allclose(out, expected_weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.per_epoch_totals, expected_trace, rtol=0, atol=1e-12)
    assert seen == expected_pseudo
    assert len(seen) == cfg.epochs + 1
    if freeze_known:
        np.testing.assert_array_equal(out[:num_known], bank[:num_known])


@pytest.mark.parametrize("num_background", [1, 3])
@pytest.mark.parametrize("reassign_each_epoch", [True, False])
@pytest.mark.parametrize("freeze_known", [False, True])
def test_episode_inputs_match_oracle(
    benchmark_dataset, monkeypatch, num_background, reassign_each_epoch, freeze_known
):
    _, ds, _ = benchmark_dataset
    inputs = _episode_finetune_inputs(ds, 5, num_background)
    _check_against_oracle(monkeypatch, inputs, reassign_each_epoch, freeze_known)


@pytest.mark.parametrize("shape", ["wide", "rank-deficient"])
@pytest.mark.parametrize("num_background", [1, 3])
@pytest.mark.parametrize("reassign_each_epoch", [True, False])
@pytest.mark.parametrize("freeze_known", [False, True])
def test_wide_and_rank_deficient_inputs_match_oracle(
    request, monkeypatch, shape, num_background, reassign_each_epoch, freeze_known
):
    if shape == "wide":
        inputs = _episode_finetune_inputs(request.getfixturevalue("wide_dataset"), 10, num_background)
    else:
        inputs = _toy_finetune_inputs(num_background)
    _check_against_oracle(monkeypatch, inputs, reassign_each_epoch, freeze_known)


def _unit_row_reference(bank, num_known, supports, labels, backgrounds, cfg):
    """The fine-tune loop written on a normalized batch: each epoch takes the
    cosines of the unit support and background rows against the current
    rows and steps the rows themselves along the summed-loss gradient. No
    coefficients, no Gram matrix, no re-base. Returns the rows and the loss
    curve."""
    unit = np.concatenate([supports, backgrounds])
    unit = unit / np.linalg.norm(unit, axis=1)[:, None]
    n_sup, n_bkg = len(supports), len(backgrounds)
    lam, lr, t = cfg.bkg_loss_weight, cfg.learning_rate, cfg.temperature
    step_weights = np.concatenate([np.full(n_sup, lr), np.full(n_bkg, lr * lam)])
    mean_weights = np.concatenate([np.full(n_sup, 1.0 / n_sup), np.full(n_bkg, lam / n_bkg)])
    targets = np.concatenate([labels, np.zeros(n_bkg, dtype=int)])
    items = np.arange(n_sup + n_bkg)
    w, lo, trace = np.array(bank, dtype=np.float64), num_known if cfg.freeze_known else 0, []
    for epoch in range(cfg.epochs + 1):
        wn = np.linalg.norm(w, axis=1)
        cos = unit @ (w / wn[:, None]).T  # items x rows
        if epoch == 0 or cfg.reassign_each_epoch:
            targets[n_sup:] = num_known + np.argmax(cos[n_sup:, num_known:], axis=1)
        z = t * cos - (t * cos).max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        trace.append(float(-np.log(p[items, targets]) @ mean_weights))
        if epoch == cfg.epochs:
            break
        g = p.copy()
        g[items, targets] -= 1.0
        g *= step_weights[:, None]
        along = (g * cos).sum(axis=0)[:, None] * w / wn[:, None]
        w[lo:] -= ((t / wn)[:, None] * (g.T @ unit - along))[lo:]
    return w, trace


def _check_against_unit_rows(inputs, reassign_each_epoch, freeze_known):
    bank, supports, labels, backgrounds, run_cfg = inputs
    cfg = dataclasses.replace(
        run_cfg.finetune, reassign_each_epoch=reassign_each_epoch, freeze_known=freeze_known
    )
    num_known = len(bank) - run_cfg.num_background
    out, report = finetune_bank(bank, num_known, supports, labels, backgrounds, cfg)
    want, want_trace = _unit_row_reference(bank, num_known, supports, labels, backgrounds, cfg)
    norms = np.linalg.norm(want, axis=1)
    assert np.all(np.abs(out - want).max(axis=1) <= 1e-14 * norms)
    np.testing.assert_allclose(report.per_epoch_totals, want_trace, rtol=1e-14, atol=0)
    return out, cfg


@pytest.mark.parametrize("reassign_each_epoch", [True, False])
@pytest.mark.parametrize("freeze_known", [False, True])
def test_episode_inputs_match_unit_row_reference(benchmark_dataset, reassign_each_epoch, freeze_known):
    # finetune_bank takes its Gram matrix, projections and final rows from the
    # raw batch rows scaled by their inverse norms; a loop on unit rows agrees
    # to rounding
    inputs = _episode_finetune_inputs(benchmark_dataset[1], 5, 3)
    _check_against_unit_rows(inputs, reassign_each_epoch, freeze_known)


def test_rebasing_run_matches_unit_row_reference(monkeypatch):
    inputs = _toy_finetune_inputs(3)
    out, cfg = _check_against_unit_rows(inputs, True, False)
    # the run re-based: without re-basing the same steps round differently
    monkeypatch.setattr(finetune, "REBASE_SCALE", np.inf)
    bank, supports, labels, backgrounds, _ = inputs
    unbased, _ = finetune_bank(bank, 3, supports, labels, backgrounds, cfg)
    assert not np.array_equal(out, unbased)


class TestEpisodicLoss:
    """With a zero learning rate the rows never move, so finetune_bank's report
    is the episodic loss of the supports (known) and backgrounds (unknown,
    pseudo-labeled with their nearest background row)."""

    def _loss(self, bank, num_known, supports, labels, backgrounds, bkg_loss_weight, temperature):
        cfg = FinetuneConfig(
            epochs=1, learning_rate=0.0, bkg_loss_weight=bkg_loss_weight, temperature=temperature
        )
        return finetune_bank(bank, num_known, supports, labels, backgrounds, cfg)[1]

    def test_saturated_unknown_selects_nearest_background(self):
        known = np.array([[1.0, 0.0, 0.0]])
        background = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        bank = np.vstack([known, background])
        report = self._loss(
            bank, 1, np.array([[1.0, 0.0, 0.0]]), np.array([0]), np.array([[0.0, 0.0, 2.0]]),
            bkg_loss_weight=1.0, temperature=500.0,
        )
        # pseudo-label must be background row 1; with huge temperature its CE -> 0
        assert report.loss_background < 1e-10

    def test_scalar_oracle(self):
        rng = np.random.default_rng(10)
        known = rng.normal(size=(4, 6))
        background = rng.normal(size=(2, 6))
        bank = np.vstack([known, background])
        kq = [(rng.normal(size=6), int(rng.integers(0, 4))) for _ in range(7)]
        uq = rng.normal(size=(5, 6))
        temperature, lam = 10.0, 0.05
        report = self._loss(
            bank, 4, np.array([q for q, _ in kq]), np.array([lab for _, lab in kq]), uq, lam, temperature
        )
        rows = np.vstack([known, background])

        def ce(q, label):
            z = temperature * np.array([_cos(r, q) for r in rows])
            z = z - z.max()
            return float(np.log(np.exp(z).sum()) - z[label])

        l1 = np.mean([ce(q, lab) for q, lab in kq])
        l2 = []
        for q in uq:
            sims = [_cos(r, q) for r in background]
            l2.append(ce(q, 4 + int(np.argmax(sims))))
        l2 = np.mean(l2)
        assert report.loss_known == pytest.approx(l1, abs=1e-10)
        assert report.loss_background == pytest.approx(l2, abs=1e-10)
        assert report.total == pytest.approx(l1 + lam * l2, abs=1e-10)
