"""Unit tests for experiment presets."""

from repro.core.presets import PRESETS, blobs_mini, lenet_glyphs, vggnet_shapes


class TestPresets:
    def test_registry(self):
        assert set(PRESETS) == {"blobs-mini", "lenet-glyphs", "vggnet-shapes"}

    def test_blobs_preset_builds(self):
        preset = blobs_mini(fast=True)
        data = preset.make_dataset()
        model = preset.build_network(1)
        assert data.n_classes == 3
        out = model.forward(data.x_train[:2])
        assert out.shape == (2, 3)

    def test_blobs_fast_variant_is_smaller(self):
        fast = blobs_mini(fast=True)
        full = blobs_mini(fast=False)
        assert fast.make_dataset().n_train < full.make_dataset().n_train
        assert (
            fast.framework_config.lifetime.max_windows
            < full.framework_config.lifetime.max_windows
        )

    def test_lenet_preset_builds(self):
        preset = lenet_glyphs(fast=True)
        data = preset.make_dataset()
        model = preset.build_network(1)
        assert data.n_classes == 10
        assert model.built
        out = model.forward(data.x_train[:2])
        assert out.shape == (2, 10)

    def test_vgg_preset_builds(self):
        preset = vggnet_shapes(fast=True)
        data = preset.make_dataset()
        model = preset.build_network(1)
        assert data.n_classes == 20
        out = model.forward(data.x_train[:2])
        assert out.shape == (2, 20)

    def test_fast_variants_are_smaller(self):
        fast = lenet_glyphs(fast=True)
        full = lenet_glyphs(fast=False)
        assert fast.make_dataset().n_train < full.framework_config.tune_samples * 10
        assert (
            fast.framework_config.lifetime.max_windows
            < full.framework_config.lifetime.max_windows
        )

    def test_vgg_skew_is_asymmetric(self):
        """Deviation from the paper's Table II (documented in
        EXPERIMENTS.md): the scaled-down VGG needs lambda1 > lambda2 to
        place the weight mass at the low end of the range."""
        preset = vggnet_shapes(fast=False)
        cfg = preset.framework_config.skewed
        assert cfg.lambda1 > cfg.lambda2
        assert cfg.beta_scale < 0
