"""Constructed scenes and their exact layers."""

import numpy as np

from covec.synthetic import make_acceptance_scene


def test_acceptance_scene_layers_compose_to_target():
    scene = make_acceptance_scene()
    assert scene.shade.shape == scene.light.shape == scene.target.shape
    assert np.abs(scene.albedo * scene.shade + scene.light - scene.target).max() <= 1e-12
    assert np.all(scene.shade[scene.shadow_mask] == 0.5)
