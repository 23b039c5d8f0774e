"""Sampler tests: leapfrog mechanics, the Metropolis correction, snapshot
records, and the PGM/PPM round trip."""

import numpy as np
import pytest

from tiltnet import hmc
from tiltnet import net as net_mod
from tiltnet.checks import fd_grad, hmc_suite
from tiltnet.errors import ConfigError, NumericsError, ShapeError

from conftest import read_image, tiny_config


def zero_net(classes=3):
    """All-zero parameters: the score is identically 0 and the potential is
    the pure Gaussian quadratic, an exactly solvable target."""
    net = net_mod.build_network(tiny_config(classes=classes))
    for p in net.params.values():
        p[...] = 0.0
    net.bump_version()
    return net


# ---------------------------------------------------------------------------
# potential


def test_potential_matches_direct_formula(tiny_net, rng):
    x = rng.normal(0.0, 1.0, (1, 6, 6))
    scores, _ = net_mod.forward_batch(tiny_net, x[None])
    for node in range(3):
        want = -scores[0, node] + np.square(x).sum() / (2.0 * 2.5**2)
        assert hmc.potential(tiny_net, node, x, 2.5) == pytest.approx(want, rel=1e-12)


def test_potential_grad_matches_fd(tiny_net):
    x = np.random.default_rng(7).normal(0.0, 1.0, (1, 6, 6))
    grad = hmc.potential_grad(tiny_net, 1, x, 2.0)
    fd = fd_grad(lambda z: hmc.potential(tiny_net, 1, z, 2.0), x, 1e-5)
    assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-6


def test_potential_rejects_bad_node(tiny_net, rng):
    x = rng.normal(0.0, 1.0, (1, 6, 6))
    with pytest.raises(ShapeError):
        hmc.potential(tiny_net, 3, x, 1.0)
    with pytest.raises(ShapeError):
        hmc.potential_grad(tiny_net, -1, x, 1.0)


# ---------------------------------------------------------------------------
# leapfrog


def test_leapfrog_is_time_reversible(tiny_net, rng):
    cfg = hmc.HmcConfig(sigma=2.0, mass=0.5, step_size=0.02, leapfrog_steps=25)
    x0 = rng.normal(0.0, 1.0, (1, 6, 6))
    phi0 = rng.normal(0.0, np.sqrt(cfg.mass), (1, 6, 6))
    start = hmc.ChainState(x0.copy(), phi0.copy(),
                           hmc.potential(tiny_net, 0, x0, cfg.sigma), 0)
    end = hmc.leapfrog(start, tiny_net, 0, cfg)
    back = hmc.leapfrog(
        hmc.ChainState(end.x, -end.phi, end.potential, 0), tiny_net, 0, cfg)
    assert np.abs(back.x - x0).max() < 1e-8
    assert np.abs(-back.phi - phi0).max() < 1e-8


def test_energy_error_scales_with_step_squared():
    # fixed trajectory length eps*L = 3 on the Gaussian target
    net = zero_net()
    gen = np.random.default_rng(3)
    x0 = gen.normal(0.0, 1.0, (1, 6, 6))
    phi0 = gen.normal(0.0, 1.0, (1, 6, 6))

    def energy_drift(eps, steps):
        cfg = hmc.HmcConfig(sigma=1.0, mass=1.0, step_size=eps, leapfrog_steps=steps)
        start = hmc.ChainState(x0.copy(), phi0.copy(),
                               hmc.potential(net, 0, x0, 1.0), 0)
        end = hmc.leapfrog(start, net, 0, cfg)
        h0 = start.potential + np.square(phi0).sum() / 2.0
        h1 = end.potential + np.square(end.phi).sum() / 2.0
        return abs(h1 - h0)

    ratio = energy_drift(0.1, 30) / energy_drift(0.05, 60)
    assert 3.5 < ratio < 4.5


def test_leapfrog_divergence_raises():
    net = zero_net()
    cfg = hmc.HmcConfig(sigma=1.0, mass=1.0, step_size=1e6, leapfrog_steps=100)
    state = hmc.ChainState(np.ones((1, 6, 6)), np.ones((1, 6, 6)), 0.0, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match="diverged at step"):
            hmc.leapfrog(state, net, 0, cfg)


def test_builtin_hmc_suite_green():
    for res in hmc_suite():
        assert res.ok, f"{res.name}: {res.value} vs tol {res.tol}"


# ---------------------------------------------------------------------------
# the Metropolis correction


def fresh_quadratic_state(net, rng):
    x0 = rng.normal(0.0, 1.0, (1, 6, 6))
    return hmc.ChainState(x0, np.zeros_like(x0), hmc.potential(net, 0, x0, 1.0), 0)


def test_metropolis_off_accepts_every_proposal():
    net = zero_net()
    cfg = hmc.HmcConfig(sigma=1.0, mass=1.0, step_size=1.9, leapfrog_steps=15,
                        metropolis=False)
    rng = np.random.default_rng(5)
    state = fresh_quadratic_state(net, rng)
    for _ in range(20):
        state, accepted = hmc.hmc_iterate(state, net, 0, cfg, rng)
        assert accepted is True


def test_metropolis_rejects_some_coarse_steps():
    # eps = 1.9 is inside the stability limit for this target but sloppy
    # enough that the correction must kick in part of the time
    net = zero_net()
    cfg = hmc.HmcConfig(sigma=1.0, mass=1.0, step_size=1.9, leapfrog_steps=15)
    rng = np.random.default_rng(5)
    state = fresh_quadratic_state(net, rng)
    outcomes = []
    for _ in range(40):
        state, accepted = hmc.hmc_iterate(state, net, 0, cfg, rng)
        outcomes.append(accepted)
    assert 0 < sum(outcomes) < len(outcomes)


def test_rejection_keeps_position_but_refreshes_momentum():
    net = zero_net()
    cfg = hmc.HmcConfig(sigma=1.0, mass=1.0, step_size=1.9, leapfrog_steps=15)
    rng = np.random.default_rng(5)
    state = fresh_quadratic_state(net, rng)
    for _ in range(40):
        before = state
        state, accepted = hmc.hmc_iterate(state, net, 0, cfg, rng)
        assert state.iteration == before.iteration + 1
        if not accepted:
            assert np.array_equal(state.x, before.x)
            assert state.potential == before.potential
            assert not np.array_equal(state.phi, before.phi)
            return
    pytest.fail("no rejection in 40 iterations at a step size known to reject")


def test_accepted_iteration_moves_position():
    net = zero_net()
    cfg = hmc.HmcConfig(sigma=1.0, mass=1.0, step_size=0.1, leapfrog_steps=10)
    rng = np.random.default_rng(0)
    state = fresh_quadratic_state(net, rng)
    new, accepted = hmc.hmc_iterate(state, net, 0, cfg, rng)
    assert accepted is True
    assert not np.array_equal(new.x, state.x)


# ---------------------------------------------------------------------------
# snapshot schedule and sample_node records


def test_default_snapshot_schedule():
    assert hmc.default_snapshots(300) == (0, 10, 50, 100, 300)
    assert hmc.default_snapshots(1500) == (0, 10, 50, 100, 500, 1000, 1500)
    assert hmc.default_snapshots(5) == (0, 5)
    assert hmc.default_snapshots(0) == (0,)


def small_chain_config(**kw):
    base = dict(sigma=2.0, mass=1.0, step_size=0.05, leapfrog_steps=5,
                iterations=12, init_std=1.0, seed=11)
    base.update(kw)
    return hmc.HmcConfig(**base)


def test_explicit_snapshots_still_include_endpoints(tiny_net):
    recs = hmc.sample_node(tiny_net, "conv1", 0, small_chain_config(snapshots=(7,)))
    assert [r.iteration for r in recs] == [0, 7, 12]


def test_zero_iterations_records_initialization_only(tiny_net):
    recs = hmc.sample_node(tiny_net, "dense1", 0, small_chain_config(iterations=0))
    (rec,) = recs
    assert rec.iteration == 0
    assert rec.kinetic == 0.0
    assert rec.hamiltonian == rec.potential
    assert rec.accepted is None


def test_sample_node_is_seed_deterministic(tiny_net):
    a = hmc.sample_node(tiny_net, "conv1", 1, small_chain_config())
    b = hmc.sample_node(tiny_net, "conv1", 1, small_chain_config())
    c = hmc.sample_node(tiny_net, "conv1", 1, small_chain_config(seed=12))
    assert all(np.array_equal(x.image, y.image) for x, y in zip(a, b))
    assert all(x.potential == y.potential for x, y in zip(a, b))
    assert not np.array_equal(a[-1].image, c[-1].image)


def test_prefix_sample_takes_required_input_shape(tiny_net):
    for layer, shape in (("conv1", (1, 3, 3)), ("pool1", (1, 4, 4))):
        recs = hmc.sample_node(tiny_net, layer, 1, small_chain_config(iterations=2))
        assert all(r.image.shape == shape for r in recs)


def test_final_layer_sample_takes_configured_input_shape(tiny_net):
    recs = hmc.sample_node(tiny_net, "dense1", 2, small_chain_config(iterations=2))
    assert all(r.image.shape == (1, 6, 6) for r in recs)


def test_prefix_without_valid_input_size_names_the_cause():
    # a kernel-1 conv with pad 1 has no input that shrinks it to 1x1
    network = net_mod.build_network(net_mod.NetworkConfig((1, 6, 6), (
        net_mod.LayerSpec("conv", channels=2, kernel=1, pad=1),
        net_mod.LayerSpec("flatten"),
        net_mod.LayerSpec("dense", width=2)), 2))
    with pytest.raises(ShapeError, match="padding swallows the window"):
        hmc.sample_node(network, "conv1", 0, small_chain_config(iterations=1))


def test_records_are_energy_consistent(tiny_net):
    recs = hmc.sample_node(tiny_net, "conv1", 0, small_chain_config())
    sub = net_mod.truncate_at(tiny_net, "conv1", 0)
    for rec in recs:
        assert rec.hamiltonian == pytest.approx(rec.potential + rec.kinetic, rel=1e-12)
        recomputed = hmc.potential(sub, 0, rec.image, 2.0)
        assert rec.potential == pytest.approx(recomputed, rel=1e-10)


def test_zero_init_starts_at_origin(tiny_net):
    recs = hmc.sample_node(tiny_net, "dense1", 0,
                           small_chain_config(init="zero", iterations=0))
    assert np.array_equal(recs[0].image, np.zeros((1, 6, 6)))


def test_config_validation():
    with pytest.raises(ConfigError):
        hmc.HmcConfig(step_size=0.0).validate()
    with pytest.raises(ConfigError):
        hmc.HmcConfig(leapfrog_steps=0).validate()
    with pytest.raises(ConfigError):
        hmc.HmcConfig(iterations=-1).validate()
    with pytest.raises(ConfigError):
        hmc.HmcConfig(init="uniform").validate()
    for outside in ((4,), (-1,), (2, -4, 99)):
        with pytest.raises(ConfigError, match="snapshots outside"):
            hmc.HmcConfig(iterations=3, snapshots=outside).validate()
    hmc.HmcConfig(iterations=3, snapshots=(0, 3)).validate()
    hmc.HmcConfig().validate()


# ---------------------------------------------------------------------------
# image files


def test_render_pgm_frozen_example(tmp_path):
    path = tmp_path / "ramp.pgm"
    hmc.render_image(np.array([[[0.0, 1.0], [2.0, 3.0]]]), path)
    blob = path.read_bytes()
    assert blob == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])


def test_render_constant_image_is_mid_gray(tmp_path):
    path = tmp_path / "flat.pgm"
    hmc.render_image(np.full((1, 3, 3), 7.25), path)
    assert read_image(path).ravel().tolist() == [128.0] * 9


def test_render_read_round_trip_is_idempotent(tmp_path, rng):
    x = rng.normal(0.0, 3.0, (1, 5, 4))
    first = tmp_path / "a.pgm"
    second = tmp_path / "b.pgm"
    hmc.render_image(x, first)
    back = read_image(first)
    assert back.shape == (1, 5, 4)
    hmc.render_image(back, second)
    assert first.read_bytes() == second.read_bytes()


def test_render_ppm_interleaves_channels(tmp_path, rng):
    x = rng.normal(0.0, 1.0, (3, 2, 2))
    path = tmp_path / "color.ppm"
    hmc.render_image(x, path)
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n2 2\n255\n")
    back = read_image(path)
    assert back.shape == (3, 2, 2)
    # the brightest and darkest samples pin the affine map's endpoints
    assert back.max() == 255.0 and back.min() == 0.0
    flat = np.unravel_index(np.argmax(x), x.shape)
    assert back[flat] == 255.0


def test_render_rejects_bad_input(tmp_path):
    with pytest.raises(ShapeError):
        hmc.render_image(np.zeros((2, 4, 4)), tmp_path / "x.pgm")
    with pytest.raises(ShapeError):
        hmc.render_image(np.zeros((4, 4)), tmp_path / "x.pgm")
    bad = np.zeros((1, 4, 4))
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericsError):
        hmc.render_image(bad, tmp_path / "x.pgm")
