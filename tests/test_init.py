"""Segmentation fallbacks, dark parts, contour tracing and layer init."""

import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import covec.pipeline
from covec.geometry import (FLATTEN_TOLERANCE, Polyline, flatten_bezier, polygon_area,
                            simplify_closed)
from covec.init_layers import (KMEANS_CLUSTERS, KMEANS_ITERS, MAX_SEGMENTS, MIN_REGION_FRAC,
                               InitError, _connected_components, _merge_small_components,
                               attenuation_ratio, fallback_albedo,
                               fallback_segment, fit_bezier_contour,
                               kmeans_labels, luma, min_region_area, paths_for_groups,
                               region_binarize, regions_from_labels, trace_boundary)
from covec.image_io import write_label_png, write_png
from covec.model import RasterizerConfig, VectorPath
from covec.pipeline import RunConfig, vectorize

from conftest import dotted_halves
from oracle_geometry import _all_pairs_signed_distance


def test_luma_rec601_weights():
    img = np.zeros((1, 3, 3))
    img[0, 0] = [1, 0, 0]
    img[0, 1] = [0, 1, 0]
    img[0, 2] = [0, 0, 1]
    assert np.allclose(luma(img)[0], [0.299, 0.587, 0.114])


def test_kmeans_separated_clusters():
    rng = np.random.default_rng(1)
    a = rng.normal([0.1, 0.1, 0.1], 0.01, (50, 3))
    b = rng.normal([0.9, 0.9, 0.9], 0.01, (50, 3))
    labels = kmeans_labels(np.vstack([a, b]), 2, seed=0)
    assert len(set(labels[:50])) == 1
    assert len(set(labels[50:])) == 1
    assert labels[0] != labels[50]


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    data = rng.uniform(0, 1, (200, 3))
    assert np.array_equal(kmeans_labels(data, 8, seed=3),
                          kmeans_labels(data, 8, seed=3))


def test_kmeans_uniform_data_single_cluster():
    data = np.full((64, 3), 0.25)
    labels = kmeans_labels(data, 8, seed=0)
    assert len(set(labels.tolist())) == 1


def _kmeans_labels_oracle(data, k, seed):
    """kmeans_labels with each Lloyd step's distances from (n, k, 3) arrays."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[rng.integers(n)]
    d2 = np.full(n, np.inf)
    for j in range(1, k):
        diff = data - centroids[j - 1]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = data[rng.integers(n)]
        else:
            centroids[j] = data[rng.choice(n, p=d2 / total)]
    labels = np.full(n, -1, dtype=np.int64)
    for _step in range(KMEANS_ITERS):
        dist = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            sel = labels == c
            if np.any(sel):
                centroids[c] = data[sel].mean(axis=0)
    return labels


@pytest.mark.parametrize("case", ["random", "ties", "constant", "noisy"])
def test_kmeans_matches_full_table_oracle(case, digest_script):
    # on quantized colours the first step's centroids (k-means++ picks
    # data points) leave hundreds of points equally far from two of them,
    # exact argmin ties; a constant image seeds by the total <= 0 branch
    rng = np.random.default_rng(7)
    data = {"random": lambda: rng.uniform(0.0, 1.0, (3000, 3)),
            "ties": lambda: rng.integers(0, 4, (3000, 3)) / 4.0,
            "constant": lambda: np.full((500, 3), 0.3),
            "noisy": lambda: digest_script.noisy_scene().reshape(-1, 3)}[case]()
    for k, seed in ((KMEANS_CLUSTERS, 0), (KMEANS_CLUSTERS, 1), (3, 2), (13, 3)):
        want = _kmeans_labels_oracle(data, k, seed)
        assert np.array_equal(kmeans_labels(data, k, seed), want)


def test_fallback_albedo_uniform_gray():
    img = np.full((16, 16, 3), 0.5)
    assert np.allclose(fallback_albedo(img), 1.0)


def test_fallback_albedo_flattens_vignette():
    h = w = 64
    ys, xs = np.mgrid[0:h, 0:w]
    xn = (xs + 0.5) / w - 0.5
    yn = (ys + 0.5) / h - 0.5
    vignette = 0.75 + 0.2 * np.exp(-(xn ** 2 + yn ** 2) / (2 * 0.5 ** 2))
    img = np.array([0.6, 0.5, 0.4])[None, None, :] * vignette[:, :, None]
    out = fallback_albedo(img)
    for c in range(3):
        assert img[:, :, c].std() >= 4.0 * out[:, :, c].std()


def test_fallback_segment_circle_on_field():
    h = w = 48
    ys, xs = np.mgrid[0:h, 0:w]
    inside = (xs - 24) ** 2 + (ys - 24) ** 2 <= 12 ** 2
    img = np.where(inside[:, :, None], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8])
    regions = fallback_segment(img, seed=0)
    masks = [regions == i for i in np.unique(regions)]
    assert len(masks) == 2
    best = max(masks, key=lambda m: np.sum(m & inside))
    agreement = np.sum(best == inside) / inside.size
    assert agreement >= 0.99


def test_fallback_segment_uniform_single_mask():
    img = np.full((20, 20, 3), 0.4)
    regions = fallback_segment(img, seed=0)
    assert np.unique(regions).size == 1
    assert np.count_nonzero(regions) == 400


def _merge_small_components_oracle(comp, min_area):
    """Whole-canvas merge: four full-canvas passes per small component."""
    cross = ndimage.generate_binary_structure(2, 1)
    comp = comp.copy()
    while True:
        ids, areas = np.unique(comp, return_counts=True)
        small = [(a, i) for i, a in zip(ids, areas) if a < min_area]
        if not small or len(ids) == 1:
            return comp
        small.sort()
        merged_any = False
        for _area, cid in small:
            mask = comp == cid
            if not np.any(mask):
                continue  # already absorbed this sweep
            ring = ndimage.binary_dilation(mask, structure=cross) & ~mask
            neighbors = np.unique(comp[ring])
            if neighbors.size == 0:
                continue
            n_areas = [(np.sum(comp == n), -n) for n in neighbors]
            target = -max(n_areas)[1]
            comp[mask] = target
            merged_any = True
        if not merged_any:
            return comp


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 24),
       st.integers(1, 6), st.integers(1, 3), st.integers(1, 40))
def test_merge_small_components_matches_whole_canvas_oracle(seed, h, w, n_labels,
                                                            block, min_area):
    # labels drawn on a coarse grid and upsampled give components of many
    # sizes; block 1 is pixel noise, mostly single-pixel components
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, n_labels, (-(-h // block), -(-w // block)))
    labels = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)[:h, :w]
    comp = _connected_components(labels)
    assert np.array_equal(_merge_small_components(comp, min_area),
                          _merge_small_components_oracle(comp, min_area))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, "noisy"])
def test_merge_small_components_matches_oracle_on_icon_scenes(seed, monkeypatch,
                                                              digest_script):
    # icons 0-3 have 206 components each; the digest's noisy scene has 1032
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    img = (digest_script.noisy_scene() if seed == "noisy"
           else importlib.import_module("scenes").icon_scene(seed))
    h, w = img.shape[:2]
    labels = kmeans_labels(img.reshape(-1, 3), KMEANS_CLUSTERS, 0).reshape(h, w)
    comp = _connected_components(labels)
    min_area = int(np.ceil(MIN_REGION_FRAC * h * w))
    merged = _merge_small_components(comp, min_area)
    assert np.array_equal(merged, _merge_small_components_oracle(comp, min_area))
    assert np.unique(comp).size > np.unique(merged).size


def test_regions_from_labels_zero_is_a_region():
    labels = np.zeros((4, 8), dtype=int)
    labels[:, 4:] = 1
    assert np.array_equal(regions_from_labels(labels), labels + 1)
    # ids follow the values' order, whatever their size
    assert regions_from_labels(np.array([[700, 300], [65535, 300]])).tolist() == [[2, 1],
                                                                                [3, 1]]


def test_regions_from_labels_empty_errors():
    with pytest.raises(InitError):
        regions_from_labels(np.zeros((0, 0), dtype=int))


def test_region_binarize_constant_region():
    img = np.full((6, 6, 3), 0.5)
    regions = np.ones((6, 6), dtype=np.int64)
    assert np.array_equal(region_binarize(img, regions), regions)


def test_region_binarize_two_level_region():
    img = np.zeros((4, 8, 3))
    img[:, :4] = 0.2
    img[:, 4:] = 0.8
    out = region_binarize(img, np.ones((4, 8), dtype=np.int64))
    expect = np.zeros((4, 8), dtype=np.int64)
    expect[:, :4] = 1
    assert np.array_equal(out, expect)


def _binarize_oracle(image, masks):
    """Literal per-pixel reimplementation of the dark-submask rule."""
    y = luma(image)
    out = []
    for m in masks:
        total, count = 0.0, 0
        h, w = m.shape
        for r in range(h):
            for c in range(w):
                if m[r, c]:
                    total += y[r, c]
                    count += 1
        if count == 0:
            continue
        thresh = total / count
        bm = np.zeros((h, w), bool)
        for r in range(h):
            for c in range(w):
                if m[r, c] and y[r, c] <= thresh:
                    bm[r, c] = True
        if bm.any():
            out.append(bm)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_region_binarize_matches_pixel_loop(seed):
    rng = np.random.default_rng(seed)
    img = rng.uniform(0, 1, (12, 10, 3))
    masks = [bm for bm in rng.uniform(0, 1, (3, 12, 10)) < 0.4 if bm.any()]
    # the masks overlap, so each is a label image of its own
    got = [region_binarize(img, bm.astype(np.int64)) == 1 for bm in masks]
    want = _binarize_oracle(img, masks)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_binarize_output_subset_of_input(rng):
    img = rng.uniform(0, 1, (10, 10, 3))
    bm = rng.uniform(0, 1, (10, 10)) < 0.5
    out = region_binarize(img, bm.astype(np.int64))
    assert not np.any((out > 0) & ~bm)


def _stack_key(mask):
    """Init's stacking key: the area inside the traced outline, larger first."""
    return -abs(polygon_area(trace_boundary(mask)))


def _organize_oracle(masks):
    """First-fit overlap packer: masks taken in ``_stack_key`` order (ties
    by input order) each join the first group holding nothing they
    overlap, else start a new group.  Returns groups of indices into
    ``masks``."""
    order = sorted(range(len(masks)), key=lambda i: (_stack_key(masks[i]), i))
    groups = []
    for i in order:
        for group in groups:
            if not any(np.any(masks[i] & masks[j]) for j in group):
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 20),
       st.integers(1, 6), st.integers(1, 4), st.booleans())
def test_paths_for_groups_stacks_like_the_overlap_packer(seed, h, w, n_levels, block,
                                                         kmeans):
    # colors drawn from a few levels on a coarse grid (block 1 is pixel
    # noise), so region and dark-part areas often tie; the regions come
    # from the levels as a label map or from the k-means fallback
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, n_levels, (-(-h // block), -(-w // block)))
    levels = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)[:h, :w]
    img = rng.integers(0, 4, (n_levels, 3))[levels] / 3.0
    img = img + rng.integers(0, 2, (h, w, 1)) / 8.0  # dark parts split regions
    regions = fallback_segment(img, seed % 7) if kmeans else regions_from_labels(levels)
    dark = region_binarize(img, regions)
    ids = np.unique(regions)
    masks = [regions == i for i in ids]
    darks = [dark == i for i in ids if np.any(dark == i)]
    n = len(masks)
    assert len(darks) == n  # the area floor is 1 px: every region has a part
    # each pixel's color names its region, so each fill names its mask
    code = np.zeros((h, w, 3))
    for i, m in enumerate(masks):
        code[m] = (i + 1) / 1024
    for label_groups, flat in (([regions], masks), ([dark], darks),
                               ([regions, dark], masks + darks)):
        groups, _ = paths_for_groups(label_groups, code, "albedo", 1.0)
        got = [[(g, round(p.fill_color[0] * 1024) - 1) for p in paths]
               for g, paths in enumerate(groups)]
        want = [[(i >= n, i % n) for i in group] for group in _organize_oracle(flat)]
        assert got == want


def _region_binarize_oracle(image, masks):
    """Per-mask, whole-canvas dark parts: the bitmaps of the kept parts, in
    mask order."""
    lum = luma(image)
    floor = min_region_area(*lum.shape)
    out = []
    for m in masks:
        vals = lum[m]
        base = float(vals.min())
        part = m & (lum <= base + float((vals - base).mean()))
        pieces = ndimage.label(part, structure=ndimage.generate_binary_structure(2, 1))[0]
        if np.bincount(pieces.ravel())[1:].max() >= floor:
            out.append(part)
    return out


def _paths_for_groups_oracle(mask_groups, color_image, layer_tag, dp_epsilon):
    """Per-mask, whole-canvas paths and renders of groups of disjoint
    bitmaps, stacked in ``_stack_key`` order, ties in input order."""
    groups, renders = [], []
    for group in mask_groups:
        paths = []
        render = np.ones(color_image.shape)
        for mask in sorted(group, key=_stack_key):
            color = np.clip(color_image[mask].mean(axis=0), 0.0, 1.0)
            loop = simplify_closed(trace_boundary(mask), dp_epsilon)
            ctrl = fit_bezier_contour(loop, MAX_SEGMENTS)
            paths.append(VectorPath(control_points=ctrl, fill_color=color,
                                    opacity=1.0, layer_tag=layer_tag))
            render[mask] = color
        groups.append(paths)
        renders.append(render)
    return groups, renders


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 24),
       st.integers(1, 6), st.integers(1, 4), st.booleans())
def test_label_image_init_matches_per_mask_oracle(seed, h, w, n_levels, block, merged):
    # a few levels on a coarse grid give labels split into several pieces
    # and regions with holes; merging the small components of the levels
    # leaves gaps in the ids
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, n_levels, (-(-h // block), -(-w // block)))
    levels = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)[:h, :w]
    if merged:
        regions = _merge_small_components(_connected_components(levels),
                                          int(rng.integers(1, 12)))
    else:
        regions = regions_from_labels(300 * levels)
    img = rng.uniform(0.0, 1.0, (n_levels, 3))[levels] + rng.uniform(0.0, 0.3, (h, w, 1))
    dark = region_binarize(img, regions)
    ids = np.unique(regions)
    masks = [regions == i for i in ids]
    darks = [dark == i for i in ids if np.any(dark == i)]
    assert set(np.unique(dark)) <= {0, *ids}
    want_darks = _region_binarize_oracle(img, masks)
    assert len(darks) == len(want_darks)
    assert all(np.array_equal(d, want) for d, want in zip(darks, want_darks))
    for label_groups, mask_groups in (([regions], [masks]), ([dark], [darks]),
                                      ([regions, dark], [masks, darks])):
        got, got_renders = paths_for_groups(label_groups, img, "albedo", 1.0)
        want, want_renders = _paths_for_groups_oracle(mask_groups, img, "albedo", 1.0)
        assert [len(g) for g in got] == [len(g) for g in want]
        for g, wg in zip(got, want):
            for p, q in zip(g, wg):
                assert np.array_equal(p.control_points, q.control_points)
                assert np.array_equal(p.fill_color, q.fill_color)
        for r, q in zip(got_renders, want_renders):
            assert np.array_equal(r, q)


def test_a_region_stacks_above_the_ring_around_it(tmp_path, digest_script):
    # the ring has fewer pixels than the disk inside it, but its outline
    # holds the disk, so the disk's path must be drawn after the ring's
    img, labels = digest_script.ring_icon()
    regions = regions_from_labels(labels)  # field 1, ring 2, disk 3
    assert np.count_nonzero(regions == 2) < np.count_nonzero(regions == 3)
    code = regions[:, :, None] / 1024 * np.ones(3)
    (stack,), _ = paths_for_groups([regions], code, "albedo", 1.0)
    assert [round(p.fill_color[0] * 1024) for p in stack] == [1, 2, 3]
    write_label_png(tmp_path / "labels.png", labels)
    write_png(tmp_path / "in.png", img, bit_depth=16)
    result = vectorize(RunConfig(input_path=str(tmp_path / "in.png"),
                                 output_path=str(tmp_path / "out.svg"),
                                 masks_path=str(tmp_path / "labels.png"),
                                 warmup_epochs=0, joint_epochs=0, refine_rounds=0))
    assert result.final_mse < 0.05  # 0.079 with the ring stacked on the disk


def test_trace_single_pixel_unit_square():
    bm = np.zeros((5, 5), bool)
    bm[2, 3] = True
    loop = trace_boundary(bm)
    assert loop.shape == (4, 2)
    assert {tuple(v) for v in loop} == {(3, 2), (4, 2), (4, 3), (3, 3)}


def test_trace_rectangle_corners_only():
    bm = np.zeros((8, 10), bool)
    bm[2:6, 3:9] = True
    loop = trace_boundary(bm)
    assert loop.shape == (4, 2)
    assert {tuple(v) for v in loop} == {(3, 2), (9, 2), (9, 6), (3, 6)}


def test_trace_plus_shape_corner_count():
    bm = np.zeros((9, 9), bool)
    bm[3:6, 1:8] = True
    bm[1:8, 3:6] = True
    loop = trace_boundary(bm)
    assert loop.shape == (12, 2)


def test_trace_uses_largest_component():
    bm = np.zeros((10, 10), bool)
    bm[1:3, 1:3] = True
    bm[5:9, 5:9] = True
    loop = trace_boundary(bm)
    xs, ys = loop[:, 0], loop[:, 1]
    assert xs.min() == 5 and ys.min() == 5


def test_trace_and_simplify_zero_epsilon_identity():
    bm = np.zeros((8, 8), bool)
    bm[2:6, 2:7] = True
    raw = trace_boundary(bm)
    assert np.array_equal(simplify_closed(raw, 0.0), raw)


def test_trace_and_simplify_disk_within_tolerance():
    h = w = 50
    ys, xs = np.mgrid[0:h, 0:w]
    bm = (xs - 25) ** 2 + (ys - 25) ** 2 <= 20 ** 2
    raw = trace_boundary(bm)
    simp = simplify_closed(raw, 2.0)
    assert simp.shape[0] < raw.shape[0]
    poly = Polyline(vertices=simp)
    dist = np.abs(_all_pairs_signed_distance(poly, raw.astype(np.float64))[0])
    assert dist.max() <= 2.0 + 1e-9


def test_trace_single_pixel_survives_coarse_epsilon():
    bm = np.zeros((4, 4), bool)
    bm[1, 1] = True
    loop = simplify_closed(trace_boundary(bm), 2.0)
    assert loop.shape[0] >= 3


def test_fit_bezier_square_reproduces_square():
    square = np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 8.0], [0.0, 8.0]])
    ctrl = fit_bezier_contour(square, 4)
    assert ctrl.shape == (12, 2)
    path = VectorPath(control_points=ctrl, fill_color=np.zeros(3),
                      opacity=1.0, layer_tag="albedo")
    poly = flatten_bezier(path, RasterizerConfig())
    ref = Polyline(vertices=square)
    dist = np.abs(_all_pairs_signed_distance(ref, poly.vertices)[0])
    assert dist.max() <= FLATTEN_TOLERANCE + 1e-9


def test_fit_bezier_closure():
    rng = np.random.default_rng(4)
    ang = np.sort(rng.uniform(0, 2 * np.pi, 30))
    pts = np.stack([10 + 6 * np.cos(ang), 10 + 6 * np.sin(ang)], axis=1)
    ctrl = fit_bezier_contour(pts, 8)
    assert ctrl.shape[0] % 3 == 0
    # segment endpoints are rows 0, 3, 6, ...; closure wraps to row 0
    assert np.allclose(ctrl[0], pts[0])


def test_fit_bezier_circle_sagitta_bound():
    n, r = 100, 20.0
    ang = np.linspace(0, 2 * np.pi, n, endpoint=False)
    pts = np.stack([30 + r * np.cos(ang), 30 + r * np.sin(ang)], axis=1)
    ctrl = fit_bezier_contour(pts, 8)
    path = VectorPath(control_points=ctrl, fill_color=np.zeros(3),
                      opacity=1.0, layer_tag="albedo")
    poly = flatten_bezier(path, RasterizerConfig())
    ref = Polyline(vertices=pts)
    dist = np.abs(_all_pairs_signed_distance(ref, poly.vertices)[0])
    sagitta = r * (1.0 - np.cos(np.pi / 8))
    assert dist.max() <= sagitta + 0.5


def test_fit_bezier_too_few_vertices():
    with pytest.raises(ValueError):
        fit_bezier_contour(np.zeros((2, 2)), 4)


def test_attenuation_ratio_formula():
    img = np.full((2, 2, 3), 0.3)
    alb = np.full((2, 2, 3), 0.6)
    assert np.allclose(attenuation_ratio(img, alb), 0.5)
    dark = np.full((2, 2, 3), 0.01)
    assert np.allclose(attenuation_ratio(img, dark), 1.0)


def _init_paths(img, albedo, labels):
    """Full mode's init in vectorize: albedo and illumination path groups."""
    regions = regions_from_labels(labels)
    a_groups, _ = paths_for_groups([regions], albedo, "albedo", 2.0)
    i_groups, _ = paths_for_groups([region_binarize(img, regions)],
                                   attenuation_ratio(img, albedo), "illumination", 2.0)
    return a_groups, i_groups


def test_init_layers_shading_free_image():
    img = np.zeros((24, 24, 3))
    img[:, :12] = [0.7, 0.3, 0.3]
    img[:, 12:] = [0.2, 0.6, 0.4]
    labels = np.zeros((24, 24), dtype=int)
    labels[:, 12:] = 1
    a_groups, i_groups = _init_paths(img, img.copy(), labels)
    n_albedo = sum(len(g) for g in a_groups)
    assert n_albedo == 2
    for group in i_groups:
        for path in group:
            assert np.all(np.abs(path.fill_color - 1.0) <= 0.05)


def test_init_layers_shadowed_disk_color():
    h = w = 32
    ys, xs = np.mgrid[0:h, 0:w]
    inside = (xs - 16) ** 2 + (ys - 16) ** 2 <= 10 ** 2
    albedo = np.where(inside[:, :, None], [0.8, 0.2, 0.2], [0.3, 0.3, 0.9])
    shading = np.where(ys >= 16, 0.5, 1.0)[:, :, None]
    img = albedo * shading
    labels = inside.astype(int) + 1
    _, i_groups = _init_paths(img, albedo, labels)
    colors = [p.fill_color for g in i_groups for p in g]
    assert any(np.all(np.abs(c - 0.5) <= 0.05) for c in colors)


def test_init_layers_counts_and_ranges():
    img = np.zeros((16, 16, 3))
    img[:8] = 0.8
    img[8:] = 0.3
    labels = np.zeros((16, 16), dtype=int)
    labels[8:] = 1
    a_groups, i_groups = _init_paths(img, img.copy(), labels)
    assert [len(g) for g in a_groups] == [2]
    for g in a_groups:
        for p in g:
            assert p.fill_color.min() >= 0.0 and p.fill_color.max() <= 1.0
    assert [len(g) for g in i_groups] == [2]  # one dark part per region


def _vectorize_init(tmp_path, monkeypatch, mode, image, labels=None, albedo=None):
    """Path counts per group of the albedo and illumination layers that
    vectorize's init block hands to warm-up (no epochs, no rounds)."""
    files = {}
    if labels is not None:
        files["masks_path"] = str(tmp_path / "labels.png")
        write_label_png(files["masks_path"], labels)
    if albedo is not None:
        files["albedo_path"] = str(tmp_path / "albedo.png")
        write_png(files["albedo_path"], albedo, bit_depth=16)
    write_png(tmp_path / "in.png", image, bit_depth=16)
    counts = []
    real_structural = covec.pipeline.run_structural

    def structural(albedo_groups, illum_groups, *args):
        counts.append(([len(g) for g in albedo_groups], [len(g) for g in illum_groups]))
        return real_structural(albedo_groups, illum_groups, *args)

    monkeypatch.setattr(covec.pipeline, "run_structural", structural)
    vectorize(RunConfig(input_path=str(tmp_path / "in.png"),
                        output_path=str(tmp_path / "out.svg"), mode=mode,
                        warmup_epochs=0, joint_epochs=0, refine_rounds=0,
                        refine_iters=1, **files))
    return counts[0]


def test_albedo_only_init_gives_a_uniform_region_one_path(tmp_path, monkeypatch,
                                                         digest_script):
    # the digest's grid of 64 flat cells: each cell is its own dark part,
    # and the cell's path already covers it
    img, labels = digest_script.grid_scene()
    regions = regions_from_labels(labels)
    assert np.array_equal(region_binarize(img, regions), regions)
    assert _vectorize_init(tmp_path, monkeypatch, "albedo_only", img,
                           labels) == ([64, 0], [])


def test_full_init_gives_a_uniform_regions_dark_part_a_path(tmp_path, monkeypatch,
                                                            digest_script):
    # in full mode the dark part carries the region's shade on its own layer
    img, labels = digest_script.grid_scene()
    assert _vectorize_init(tmp_path, monkeypatch, "full", img, labels) == ([64], [64])


@pytest.mark.parametrize("piece,kept", [(1, []), (2, [0])])
def test_region_binarize_drops_parts_whose_largest_piece_is_below_the_floor(piece, kept):
    assert min_region_area(40, 40) == 2
    img, labels = dotted_halves(piece)
    regions = regions_from_labels(labels)
    want = np.zeros_like(regions)
    for i in kept:
        want[(regions == i + 1) & (luma(img) < 0.4)] = i + 1
    assert np.array_equal(region_binarize(img, regions), want)


def test_dust_dark_parts_get_no_path_in_either_mode(tmp_path, monkeypatch):
    img, labels = dotted_halves(1)
    (tmp_path / "a").mkdir()
    (tmp_path / "f").mkdir()
    assert _vectorize_init(tmp_path / "a", monkeypatch, "albedo_only", img,
                           labels) == ([2, 0], [])
    assert _vectorize_init(tmp_path / "f", monkeypatch, "full", img, labels,
                           img) == ([2], [0])


def test_bench_scene_init_path_counts(tmp_path, monkeypatch):
    # icon seed 0: k-means gives the disk and the background; the disk is
    # flat (its dark part is itself) and the background's dark part is
    # anti-aliasing dust, so neither adds a path.  Lit scene seed 0: the
    # shadow gives the background a dark part, the disk's is dust.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    scenes = importlib.import_module("scenes")
    (tmp_path / "icon").mkdir()
    (tmp_path / "lit").mkdir()
    assert _vectorize_init(tmp_path / "icon", monkeypatch, "albedo_only",
                           scenes.icon_scene(0)) == ([2, 0], [])
    lit = scenes.lit_scene(0)
    assert _vectorize_init(tmp_path / "lit", monkeypatch, "full", lit["target"],
                           lit["labels"], lit["albedo"]) == ([2], [1])


def test_init_matches_checked_in_digest(digest_script, checked_in_digest, tmp_path):
    # the */init/* lines of scripts/output_digest.txt: the SVG and final
    # MSE of the initial paths, on the bench scenes and the 64-cell grid
    want = [line for line in checked_in_digest if "/init/" in line]
    assert len(want) == 18
    got = [digest_script.digest(mode, "init", seed, tmp_path)
           for mode in ("full", "albedo_only") for seed in digest_script.run_seeds("init")]
    assert got == want
