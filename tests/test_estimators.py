import numpy as np
import pytest

from otlab import ConvNetClassifier, OcclusionMapper, TripletEmbedder
from otlab.data import SyntheticSpec, generate_synthetic
from otlab.errors import StateError
from otlab.occlusion import point_in_rect


def _arrays(spec=None):
    spec = spec or SyntheticSpec(class_count=3, samples_per_class=12, image_size=8,
                                 cue_region=(2, 2, 4, 4), seed=0)
    ds = generate_synthetic(spec)
    return ds.image_array(), ds.label_array(), spec


def test_get_set_params_round_trip():
    clf = ConvNetClassifier(steps=50, lr=0.1, seed=3)
    params = clf.get_params()
    assert params["steps"] == 50 and params["lr"] == 0.1 and params["seed"] == 3
    clone = ConvNetClassifier(**params)
    assert clone.get_params() == params
    clone.set_params(steps=10)
    assert clone.steps == 10
    with pytest.raises(ValueError, match="invalid parameter"):
        clone.set_params(nope=1)


def test_classifier_fit_predict_score():
    X, y, _ = _arrays()
    clf = ConvNetClassifier(steps=80, lr=0.05, batch_size=12, seed=0)
    assert clf.fit(X, y) is clf
    acc = clf.score(X, y)
    assert acc >= 0.9
    proba = clf.predict_proba(X[:5])
    assert proba.shape == (5, 3)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
    assert set(clf.predict(X[:5])) <= set(clf.classes_)


def test_classifier_respects_non_contiguous_labels():
    X, y, _ = _arrays()
    shifted = y * 5 + 2          # labels {2, 7, 12}
    clf = ConvNetClassifier(steps=60, lr=0.05, batch_size=12, seed=0).fit(X, shifted)
    assert set(clf.predict(X)) <= {2, 7, 12}


def test_classifier_same_seed_reproduces():
    X, y, _ = _arrays()
    a = ConvNetClassifier(steps=30, seed=5).fit(X, y)
    b = ConvNetClassifier(steps=30, seed=5).fit(X, y)
    for name in a.model_.params:
        np.testing.assert_array_equal(a.model_.params[name], b.model_.params[name])


def test_unfitted_classifier_raises():
    with pytest.raises(StateError, match="not fitted"):
        ConvNetClassifier().predict(np.zeros((1, 8, 8)))


def test_classifier_with_occlusion_augmentation():
    X, y, _ = _arrays()
    clf = ConvNetClassifier(steps=40, seed=0, augment="random",
                            occluder={"height": 2, "width": 2})
    clf.fit(X, y)
    assert hasattr(clf, "model_")


def test_triplet_embedder_fit_transform():
    X, y, _ = _arrays()
    base = ConvNetClassifier(steps=80, lr=0.05, batch_size=12, seed=0).fit(X, y)
    emb = TripletEmbedder(base_model=base, mode="batch", online=False, steps=15,
                          lr=0.002, pool_classes=3, pool_per_class=6, seed=1)
    Z = emb.fit_transform(X, y)
    assert Z.shape == (len(y), base.model_.bottleneck_dim())
    np.testing.assert_allclose(np.linalg.norm(Z, axis=1), 1.0, atol=1e-10)
    # base estimator is left untouched
    assert base.model_ is not emb.model_


def test_triplet_embedder_requires_base():
    X, y, _ = _arrays()
    with pytest.raises(ValueError, match="base_model"):
        TripletEmbedder().fit(X, y)


def test_occlusion_mapper_recovers_cue_region():
    X, y, spec = _arrays()
    clf = ConvNetClassifier(steps=120, lr=0.05, batch_size=12, seed=0).fit(X, y)
    mapper = OcclusionMapper(model=clf, occluder={"height": 3, "width": 3},
                             max_images=12, temperature=0.3, seed=2)
    mapper.fit(X, y)
    assert mapper.map_.grid.shape == (8, 8)
    assert abs(mapper.placement_.probs.sum() - 1.0) < 1e-12
    from otlab.occlusion import top_decile_centroid
    assert point_in_rect(top_decile_centroid(mapper.map_), spec.resolved_cue_region())


def test_occlusion_mapper_encodes_labels_through_the_classifier_classes():
    X, y, _ = _arrays()
    maps = []
    for labels in (y, y * 5 + 2):       # {0, 1, 2} and {2, 7, 12} train the same net
        clf = ConvNetClassifier(steps=120, lr=0.05, batch_size=12, seed=0).fit(X, labels)
        mapper = OcclusionMapper(model=clf, occluder={"height": 3, "width": 3},
                                 max_images=12, seed=2).fit(X, labels)
        maps.append(mapper.map_.grid)
    np.testing.assert_array_equal(maps[0], maps[1])
    with pytest.raises(ValueError, match=r"labels \[3\] are not among"):
        OcclusionMapper(model=clf).fit(X, np.where(y == 0, 3, labels))


def test_occlusion_mapper_rejects_an_unfitted_classifier():
    X, y, _ = _arrays()
    with pytest.raises(StateError, match="not fitted"):
        OcclusionMapper(model=ConvNetClassifier()).fit(X, y)
