"""Container round trips, error taxonomy, and PICMUS-layout ingestion."""

import json
import os
import struct
import sys
import threading
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwrecon import (
    BModeImage,
    ChannelData,
    CystRegion,
    ImagingGrid,
    Phantom,
    PlaneWaveTx,
    PointTarget,
    Psf,
    RfImage,
    cached_system_matrix,
    load_matrix,
    make_point_phantom,
    read_container,
    write_container,
)
from pwrecon.io import (
    PAYLOADS,
    BadMagicError,
    ContainerError,
    StructureError,
    TruncatedFileError,
    VersionMismatchError,
    _picmus_channel,
    ingest_picmus,
)


class TestContainerRoundTrip:
    def test_rfimage_payload_bit_identical(self, tiny_grid, rng, tmp_path):
        img = RfImage(rng.standard_normal(tiny_grid.shape), tiny_grid)
        path = tmp_path / "img.usjd"
        write_container(img, path)
        back = read_container(path)
        assert isinstance(back, RfImage)
        assert np.array_equal(
            back.data.astype("<f4"), img.data.astype("<f4")
        )
        assert back.grid == img.grid

    def test_channel_round_trip(self, tiny_probe, rng, tmp_path):
        ch = ChannelData(
            samples=rng.standard_normal((24, 8)),
            tx=PlaneWaveTx(angle=0.05),
            probe=tiny_probe,
        )
        path = tmp_path / "ch.usjd"
        write_container(ch, path)
        back = read_container(path)
        assert isinstance(back, ChannelData)
        assert back.probe == tiny_probe
        assert back.tx.angle == 0.05
        assert np.array_equal(back.samples.astype("<f4"), ch.samples.astype("<f4"))

    def test_psf_and_phantom(self, tiny_grid, rng, tmp_path):
        psf = Psf(kernel=rng.standard_normal((5, 3)))
        write_container(psf, tmp_path / "p.usjd")
        back = read_container(tmp_path / "p.usjd")
        assert isinstance(back, Psf)
        assert np.array_equal(back.kernel, psf.kernel.astype("<f4"))

        ph = make_point_phantom(
            tiny_grid, [(tiny_grid.z_positions[4], tiny_grid.x_positions[4])]
        )
        write_container(ph, tmp_path / "ph.usjd")
        back = read_container(tmp_path / "ph.usjd")
        assert isinstance(back, Phantom)
        assert back.annotations[0].iz == 4

    def test_concurrent_writers_of_one_path_all_succeed(
        self, tiny_grid, rng, tmp_path, monkeypatch
    ):
        # every writer has written its temp file before any renames it, the
        # interleaving under which writers sharing one temp name collide
        img = RfImage(rng.standard_normal(tiny_grid.shape), tiny_grid)
        path = tmp_path / "img.usjd"
        writers = 4
        barrier = threading.Barrier(writers, timeout=30)
        rename = os.replace

        def rename_together(src, dst):
            barrier.wait()
            rename(src, dst)

        monkeypatch.setattr(os, "replace", rename_together)
        errors = []

        def write():
            try:
                write_container(img, path)
            except Exception as err:
                errors.append(err)

        threads = [threading.Thread(target=write) for _ in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert np.array_equal(read_container(path, "rfimage").data, img.data.astype("<f4"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["img.usjd"]

    def test_matrix_delegates_to_cache_format(self, tiny_instance, tmp_path):
        from pwrecon import SparseSystemMatrix

        model = tiny_instance["model"]
        path = tmp_path / "m.usjm"
        write_container(model, path)
        back = read_container(path)
        assert isinstance(back, SparseSystemMatrix)
        assert back.fingerprint == model.fingerprint


def _edit_meta(path, edit):
    """Rewrite a container's metadata JSON in place through ``edit(meta)``."""
    blob = path.read_bytes()
    at = 7 + blob[6]  # magic, version, kind length, kind
    (meta_len,) = struct.unpack("<I", blob[at : at + 4])
    meta = json.loads(blob[at + 4 : at + 4 + meta_len])
    edit(meta)
    text = json.dumps(meta, sort_keys=True).encode("utf-8")
    path.write_bytes(
        blob[:at] + struct.pack("<I", len(text)) + text + blob[at + 4 + meta_len :]
    )


def _write_cropped(model, path, drop):
    """Write ``model`` with one element's worth of rows ("rows") or one grid
    column of pixels ("columns") dropped from the end of its CSR, under the
    full matrix's num_samples and fingerprint."""
    mat = model.matrix
    cropped = mat[: -model.probe.num_elements] if drop == "rows" else mat[:, : -model.grid.nz]
    write_container(replace(model, matrix=cropped), path)
    full = {"num_samples": model.num_time_samples, "fingerprint": model.fingerprint}
    _edit_meta(path, lambda meta: meta.update(full))


class TestOlderContainers:
    """Containers written while Psf carried grid spacings and ApodizationSpec
    a minimum half-aperture."""

    def test_psf_with_spacings_loads(self, rng, tmp_path):
        psf = Psf(kernel=rng.standard_normal((5, 3)))
        path = tmp_path / "p.usjd"
        write_container(psf, path)
        _edit_meta(path, lambda meta: meta.update(dz=1e-4, dx=3e-4))
        back = read_container(path, "psf")
        assert np.array_equal(back.kernel, psf.kernel.astype("<f4"))

    def test_matrix_with_min_half_aperture_is_refused(self, tiny_instance, tmp_path):
        path = tmp_path / "m.usjd"
        write_container(tiny_instance["model"], path)
        _edit_meta(path, lambda meta: meta["apodization"].update(min_half_aperture=0.0))
        with pytest.raises(StructureError, match="min_half_aperture"):
            load_matrix(path)

    def test_cache_entry_with_min_half_aperture_is_rebuilt(
        self, tiny_instance, tmp_path, monkeypatch
    ):
        inst = tiny_instance
        monkeypatch.setenv("PWRECON_CACHE_DIR", str(tmp_path))
        args = (inst["probe"], inst["grid"], inst["tx"], inst["num_samples"], inst["apod"])
        cached_system_matrix(*args)
        (path,) = tmp_path.glob("sysmat_*.usjd")
        _edit_meta(path, lambda meta: meta["apodization"].update(min_half_aperture=0.0))
        assert cached_system_matrix(*args).nnz == inst["model"].nnz
        assert load_matrix(path).fingerprint == inst["model"].fingerprint


class TestContainerErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.usjd"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            read_container(path)

    def test_version_mismatch(self, tiny_grid, rng, tmp_path):
        img = RfImage(rng.standard_normal(tiny_grid.shape), tiny_grid)
        path = tmp_path / "img.usjd"
        write_container(img, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            read_container(path)

    def test_truncated_payload(self, tiny_grid, rng, tmp_path):
        img = RfImage(rng.standard_normal(tiny_grid.shape), tiny_grid)
        path = tmp_path / "img.usjd"
        write_container(img, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(TruncatedFileError):
            read_container(path)

    def test_dims_product_mismatch(self, tiny_grid, rng, tmp_path):
        img = RfImage(rng.standard_normal(tiny_grid.shape), tiny_grid)
        path = tmp_path / "img.usjd"
        write_container(img, path)
        blob = path.read_bytes()
        # corrupt the payload count field only
        meta_len = struct.unpack("<I", blob[14:18])[0]
        count_at = 18 + meta_len
        bad = (
            blob[:count_at]
            + struct.pack("<Q", tiny_grid.num_pixels - 1)
            + blob[count_at + 8 :]
        )
        path.write_bytes(bad)
        with pytest.raises((StructureError, TruncatedFileError)):
            read_container(path)

    def test_matrix_index_out_of_range(self, tiny_instance, tmp_path):
        path = tmp_path / "m.usjd"
        write_container(tiny_instance["model"], path)
        blob = bytearray(path.read_bytes())
        (meta_len,) = struct.unpack("<I", blob[13:17])  # kind "matrix": 6 bytes
        indptr_at = 17 + meta_len
        (num_indptr,) = struct.unpack("<Q", blob[indptr_at : indptr_at + 8])
        indices_at = indptr_at + 8 + 8 * num_indptr + 8
        blob[indices_at : indices_at + 4] = struct.pack("<i", 10**6)
        path.write_bytes(bytes(blob))
        with pytest.raises(StructureError, match="indices"):
            read_container(path)

    @pytest.mark.parametrize("drop", ["rows", "columns"])
    def test_matrix_shape_other_than_the_geometry_is_refused(self, tiny_instance, tmp_path, drop):
        path = tmp_path / "m.usjd"
        _write_cropped(tiny_instance["model"], path, drop)
        with pytest.raises(StructureError, match="dims .* expected \\[512, 256\\]"):
            load_matrix(path)

    def test_cache_entry_of_another_shape_is_rebuilt(self, tiny_instance, tmp_path, monkeypatch):
        inst = tiny_instance
        monkeypatch.setenv("PWRECON_CACHE_DIR", str(tmp_path))
        args = (inst["probe"], inst["grid"], inst["tx"], inst["num_samples"], inst["apod"])
        cached_system_matrix(*args)
        (path,) = tmp_path.glob("sysmat_*.usjd")
        _write_cropped(inst["model"], path, "rows")
        assert cached_system_matrix(*args).matrix.shape == (512, 256)
        assert load_matrix(path).matrix.shape == (512, 256)

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_container(object(), tmp_path / "x.usjd")


def _sample(kind, seed, nz, nx, z_origin, instance):
    """A small object of one container kind; matrices come from ``instance``."""
    rng = np.random.default_rng(seed)
    grid = ImagingGrid(nz=nz, nx=nx, dz=1e-4, dx=3e-4, z_origin=z_origin)
    if kind == "matrix":
        return instance["model"]
    if kind == "channel":
        samples = rng.standard_normal((nz, instance["probe"].num_elements))
        return ChannelData(samples, PlaneWaveTx(angle=z_origin), instance["probe"])
    if kind == "rfimage":
        return RfImage(rng.standard_normal(grid.shape), grid)
    if kind == "psf":
        return Psf(rng.standard_normal((2 * nz - 1, 2 * nx - 1)))
    annotations = [
        PointTarget(iz=nz - 1, ix=0, z=z_origin, x=0.0, amplitude=1.5),
        CystRegion(z=z_origin, x=-1e-3, radius=2e-3),
    ]
    return Phantom(rng.standard_normal(grid.shape), grid, annotations)


def _assert_same(back, obj):
    assert type(back) is type(obj)
    for name, value in vars(obj).items():
        other = getattr(back, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(other, value.astype("<f4"))
        elif name == "matrix":
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(other, part), getattr(value, part))
            assert other.shape == value.shape
        elif name != "_tf_cache":
            assert other == value


class TestContainerProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(sorted(PAYLOADS)),
        seed=st.integers(0, 2**32 - 1),
        nz=st.integers(1, 6),
        nx=st.integers(1, 6),
        z_origin=st.floats(-1.0, 1.0),
    )
    def test_every_kind_round_trips(
        self, tmp_path_factory, tiny_instance, kind, seed, nz, nx, z_origin
    ):
        obj = _sample(kind, seed, nz, nx, z_origin, tiny_instance)
        path = tmp_path_factory.mktemp("rt") / "obj.usjd"
        write_container(obj, path)
        _assert_same(read_container(path), obj)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(PAYLOADS)), data=st.data())
    def test_every_strict_prefix_is_a_container_error(
        self, tmp_path_factory, tiny_instance, kind, data
    ):
        path = tmp_path_factory.mktemp("prefix") / "obj.usjd"
        write_container(_sample(kind, 0, 3, 3, 0.0, tiny_instance), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(ContainerError):
            read_container(path)


def _pinned_meta(kind, obj):
    """The metadata each kind writes, keys listed by hand."""
    if kind == "matrix":
        return {
            "dims": list(obj.matrix.shape),
            "fingerprint": obj.fingerprint,
            "probe": asdict(obj.probe),
            "grid": asdict(obj.grid),
            "tx": asdict(obj.tx),
            "apodization": asdict(obj.apodization),
            "num_samples": obj.num_time_samples,
        }
    if kind == "channel":
        return {"dims": list(obj.samples.shape), "probe": asdict(obj.probe),
                "tx": asdict(obj.tx)}
    if kind == "rfimage":
        return {"dims": list(obj.data.shape), "grid": asdict(obj.grid)}
    if kind == "psf":
        return {"dims": list(obj.kernel.shape)}
    point, cyst = obj.annotations
    return {"dims": list(obj.trf.shape), "grid": asdict(obj.grid),
            "annotations": [{"type": "point", **asdict(point)},
                            {"type": "cyst", **asdict(cyst)}]}


def _pinned_payloads(kind, obj):
    if kind == "matrix":
        m = obj.matrix
        return [(m.indptr, "<i8"), (m.indices, "<i4"), (m.data, "<f8")]
    attr = {"channel": "samples", "psf": "kernel", "phantom": "trf"}.get(kind, "data")
    return [(getattr(obj, attr), "<f4")]


class TestPinnedFormat:
    """Each kind writes exactly the bytes the format description gives."""

    @pytest.mark.parametrize(
        "kind", ["channel", "rfimage", "psf", "phantom", "matrix"]
    )
    def test_written_bytes(self, tiny_instance, tmp_path, kind):
        obj = _sample(kind, 3, 4, 5, 0.25, tiny_instance)
        meta = json.dumps(_pinned_meta(kind, obj), sort_keys=True).encode("utf-8")
        expected = (
            b"USJD" + struct.pack("<HB", 1, len(kind)) + kind.encode("ascii")
            + struct.pack("<I", len(meta)) + meta
        )
        for array, dtype in _pinned_payloads(kind, obj):
            values = np.ascontiguousarray(array, dtype=dtype)
            expected += struct.pack("<Q", values.size) + values.tobytes()
        path = tmp_path / "obj.usjd"
        write_container(obj, path)
        assert path.read_bytes() == expected


class TestExpectedKinds:
    @pytest.fixture()
    def rfimage_file(self, tiny_grid, rng, tmp_path):
        path = tmp_path / "img.usjd"
        write_container(RfImage(rng.standard_normal(tiny_grid.shape), tiny_grid), path)
        return path

    def test_other_kind_is_refused_naming_both(self, rfimage_file):
        assert isinstance(read_container(rfimage_file, "rfimage"), RfImage)
        with pytest.raises(StructureError, match="holds a rfimage container, expected psf$"):
            read_container(rfimage_file, "psf")

    def test_bmode_is_no_container_kind(self, tiny_grid, rng, tmp_path):
        # nothing writes a log-compressed image; export-png renders an rfimage
        bm = BModeImage(-60.0 * rng.random(tiny_grid.shape), tiny_grid, 60.0)
        with pytest.raises(TypeError, match="BModeImage"):
            write_container(bm, tmp_path / "b.usjd")
        assert "bmode" not in PAYLOADS

    def test_load_matrix_refuses_an_image(self, rfimage_file):
        with pytest.raises(StructureError, match="expected matrix"):
            load_matrix(rfimage_file)


def make_picmus_file(path, num_angles=5, num_elements=16, num_samples=64,
                     modulation_frequency=0.0):
    h5py = pytest.importorskip("h5py")
    rng = np.random.default_rng(0)
    angles = np.linspace(-0.1, 0.1, num_angles)
    with h5py.File(path, "w") as f:
        g = f.create_group("US").create_group("US_DATASET0000")
        g.create_dataset("angles", data=angles)
        data = g.create_group("data")
        data.create_dataset(
            "real",
            data=rng.standard_normal((num_angles, num_elements, num_samples)),
        )
        data.create_dataset(
            "imag", data=np.zeros((num_angles, num_elements, num_samples))
        )
        g.create_dataset("sampling_frequency", data=20.832e6)
        g.create_dataset("sound_speed", data=1540.0)
        g.create_dataset("initial_time", data=0.0)
        g.create_dataset("modulation_frequency", data=modulation_frequency)
        geom = np.zeros((3, num_elements))
        geom[0] = (np.arange(num_elements) - (num_elements - 1) / 2) * 0.3e-3
        g.create_dataset("probe_geometry", data=geom)
    return angles


class TestPicmusIngest:
    def test_missing_file_has_actionable_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="dataset not found"):
            ingest_picmus(tmp_path / "nope.hdf5")

    def test_path_checked_before_h5py_import(self, tmp_path, monkeypatch):
        # A None entry makes ``import h5py`` fail even where h5py is installed.
        monkeypatch.setitem(sys.modules, "h5py", None)
        with pytest.raises(FileNotFoundError, match="dataset not found"):
            ingest_picmus(tmp_path / "nope.hdf5")
        present = tmp_path / "not_hdf5.bin"
        present.write_bytes(b"not an HDF5 file")
        with pytest.raises(ImportError, match="h5py"):
            ingest_picmus(present)

    def test_selects_normal_incidence_by_default(self, tmp_path):
        path = tmp_path / "picmus.hdf5"
        angles = make_picmus_file(path)
        ch = ingest_picmus(path)
        assert ch.tx.angle == pytest.approx(angles[len(angles) // 2])
        assert ch.probe.num_elements == 16
        assert ch.probe.pitch == pytest.approx(0.3e-3, rel=1e-9)
        assert ch.samples.shape == (64, 16)

    def test_explicit_angle_selection(self, tmp_path):
        path = tmp_path / "picmus.hdf5"
        angles = make_picmus_file(path)
        ch = ingest_picmus(path, angle_index=0)
        assert ch.tx.angle == pytest.approx(angles[0])
        with pytest.raises(ValueError, match="angle index"):
            ingest_picmus(path, angle_index=99)

    def test_iq_only_file_rejected(self, tmp_path):
        path = tmp_path / "iq.hdf5"
        make_picmus_file(path, modulation_frequency=5.0e6)
        with pytest.raises(StructureError, match="IQ"):
            ingest_picmus(path)

    def test_missing_group_named_in_error(self, tmp_path):
        h5py = pytest.importorskip("h5py")
        path = tmp_path / "broken.hdf5"
        with h5py.File(path, "w") as f:
            g = f.create_group("US").create_group("US_DATASET0000")
            g.create_dataset("angles", data=np.zeros(3))
        with pytest.raises(StructureError, match="data"):
            ingest_picmus(path)


def picmus_mapping(num_angles=5, num_elements=16, num_samples=64, **fields):
    """The layout of ``make_picmus_file`` as nested dicts of numpy arrays;
    ``fields`` replace (or, given None, drop) datasets of the group."""
    rng = np.random.default_rng(0)
    geom = np.zeros((3, num_elements))
    geom[0] = (np.arange(num_elements) - (num_elements - 1) / 2) * 0.3e-3
    group = {
        "angles": np.linspace(-0.1, 0.1, num_angles),
        "data": {"real": rng.standard_normal((num_angles, num_elements, num_samples))},
        "sampling_frequency": np.array(20.832e6),
        "sound_speed": np.array(1540.0),
        "initial_time": np.array(0.0),
        "modulation_frequency": np.array(0.0),
        "probe_geometry": geom,
    }
    group.update(fields)
    group = {k: v for k, v in group.items() if v is not None}
    return {"US": {"US_DATASET0000": group}}


class TestPicmusLayout:
    """The PICMUS reader on nested mappings: every check of the HDF5 tests,
    without h5py."""

    @staticmethod
    def _read(root, angle_index=None):
        return _picmus_channel(root, "mem.hdf5", angle_index)

    def test_selects_normal_incidence_by_default(self):
        root = picmus_mapping()
        angles = root["US"]["US_DATASET0000"]["angles"]
        ch = self._read(root)
        probe = ch.probe
        assert ch.tx.angle == angles[2]
        assert probe.num_elements == 16
        assert probe.pitch == pytest.approx(0.3e-3, rel=1e-9)
        assert (probe.sound_speed, probe.t0_offset) == (1540.0, 0.0)
        assert probe.center_freq == 20.832e6 / 4
        real = root["US"]["US_DATASET0000"]["data"]["real"]
        assert np.array_equal(ch.samples, real[2].T)

    def test_explicit_angle_selection(self):
        root = picmus_mapping()
        ch = self._read(root, angle_index=0)
        assert ch.tx.angle == root["US"]["US_DATASET0000"]["angles"][0]
        with pytest.raises(ValueError, match="angle index 99 out of range"):
            self._read(root, angle_index=99)

    def test_iq_only_rejected(self):
        with pytest.raises(StructureError, match="IQ data"):
            self._read(picmus_mapping(modulation_frequency=np.array(5.0e6)))

    @pytest.mark.parametrize("root, named", [
        ({}, "missing group 'US'"),
        ({"US": {"other": {}}}, "no 'US/US_DATASET\\*' group"),
        ({"US": {"US_DATASET0000": {"angles": np.zeros(3)}}}, "missing dataset group 'data'"),
        (picmus_mapping(data={"imag": np.zeros((5, 16, 64))}), "'data/real'"),
    ])
    def test_missing_group_named_in_error(self, root, named):
        with pytest.raises(StructureError, match=named):
            self._read(root)

    def test_two_dimensional_data_for_one_angle(self):
        real = np.random.default_rng(1).standard_normal((16, 40))
        ch = self._read(picmus_mapping(angles=np.array([0.05]), data={"real": real}))
        assert ch.tx.angle == 0.05 and ch.probe.num_elements == 16
        assert np.array_equal(ch.samples, real.T)

    @pytest.mark.parametrize("angle_index", [None, 0])
    @pytest.mark.parametrize("real, held", [
        (np.zeros((16, 64)), 1),
        (np.zeros((3, 16, 64)), 3),
    ])
    def test_data_angle_count_must_match_angles(self, real, held, angle_index):
        named = "mem.hdf5: data/real holds %d angles, 'angles' lists 5" % held
        with pytest.raises(StructureError, match=named):
            self._read(picmus_mapping(data={"real": real}), angle_index)

    def test_element_positions_stored_n_by_3(self):
        geom = picmus_mapping()["US"]["US_DATASET0000"]["probe_geometry"]
        probe = self._read(picmus_mapping(probe_geometry=geom.T.copy())).probe
        assert probe.num_elements == 16
        assert probe.pitch == pytest.approx(0.3e-3, rel=1e-9)

    def test_absent_sound_speed_and_initial_time(self):
        probe = self._read(
            picmus_mapping(sound_speed=None, initial_time=None, modulation_frequency=None)
        ).probe
        assert (probe.sound_speed, probe.t0_offset) == (1540.0, 0.0)
        probe = self._read(
            picmus_mapping(sound_speed=np.array(1480.0), initial_time=np.array(2e-6))
        ).probe
        assert (probe.sound_speed, probe.t0_offset) == (1480.0, 2e-6)

    def test_non_uniform_pitch_is_the_mean_spacing(self):
        geom = np.zeros((3, 4))
        geom[0] = [0.3e-3, -0.3e-3, 0.0, 0.7e-3]  # sorted spacings 0.3, 0.3, 0.4 mm
        probe = self._read(picmus_mapping(num_elements=4, probe_geometry=geom)).probe
        assert probe.num_elements == 4
        assert probe.pitch == pytest.approx(1.0e-3 / 3, rel=1e-12)
