import numpy as np
import pytest

from conftest import peak_bytes
from gfkit.imgio import PnmError, quantize, read_pnm, write_pnm, write_pnm_file

VALID_P5 = b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])

# (stream, expected reason) for the malformed-header gauntlet
MALFORMED = [
    (b"", "magic"),
    (b"\x89PNG\r\n", "magic"),
    (b"P4\n2 2\n255\n" + bytes(4), "magic"),
    (b"P7\n2 2\n255\n" + bytes(4), "magic"),
    (b"p5\n2 2\n255\n" + bytes(4), "magic"),
    (b"5P\n2 2\n255\n" + bytes(4), "magic"),
    (b"P2\n2 2\n255\n0 1 2 3", "magic"),  # ascii variant unsupported
    (b"P3\n2 2\n255\n" + bytes(12), "magic"),
    (b"P5", "header"),
    (b"P5\n2", "header"),
    (b"P5\n2 2", "header"),
    (b"P5\nx 2\n255\n" + bytes(4), "header"),
    (b"P5\n2 y\n255\n" + bytes(4), "header"),
    (b"P5\n2 2\nmax\n" + bytes(4), "header"),
    (b"P5\n0 2\n255\n", "dimension"),
    (b"P5\n2 0\n255\n", "dimension"),
    (b"P5\n2 2\n65536\n" + bytes(8), "maxval"),
    (b"P5\n2 2\n0\n" + bytes(4), "maxval"),
    (b"P5\n2 2\n99999\n" + bytes(8), "maxval"),
    (b"P5\n2 2\n255\n" + bytes(3), "truncated"),
]


class TestRead:
    def test_basic_p5_decode(self):
        channels = read_pnm(VALID_P5)
        assert len(channels) == 1
        np.testing.assert_allclose(
            channels[0], np.array([[0, 128 / 255], [1.0, 64 / 255]])
        )

    def test_comments_skipped(self):
        data = b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([0, 128, 255, 64])
        np.testing.assert_array_equal(read_pnm(data)[0], read_pnm(VALID_P5)[0])

    def test_truncated_raster_offset(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 128, 255])
        with pytest.raises(PnmError) as err:
            read_pnm(data)
        assert err.value.reason == "truncated"
        assert err.value.offset == len(data)

    def test_p6_channel_split(self):
        raster = bytes([10, 20, 30, 40, 50, 60])
        channels = read_pnm(b"P6\n2 1\n255\n" + raster)
        assert len(channels) == 3
        np.testing.assert_allclose(channels[0], np.array([[10, 40]]) / 255)
        np.testing.assert_allclose(channels[1], np.array([[20, 50]]) / 255)
        np.testing.assert_allclose(channels[2], np.array([[30, 60]]) / 255)

    def test_16bit_big_endian(self):
        raster = (0x0102).to_bytes(2, "big") + (0xFFFF).to_bytes(2, "big")
        channels = read_pnm(b"P5\n2 1\n65535\n" + raster)
        np.testing.assert_allclose(channels[0], np.array([[0x0102 / 65535, 1.0]]))

    @pytest.mark.parametrize("maxval", [255, 65535])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_channels_are_exact_contiguous_planes(self, channels, maxval):
        rng = np.random.default_rng(channels)
        dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
        samples = rng.integers(0, maxval + 1, size=(13, 7 * channels)).astype(dtype)
        magic = b"P5" if channels == 1 else b"P6"
        data = magic + b"\n7 13\n%d\n" % maxval + samples.tobytes()
        got = read_pnm(data)
        # the earlier decode: one interleaved float plane, then per-channel copies
        interleaved = (samples.astype(np.float64) / maxval).reshape(13, 7, channels)
        assert len(got) == channels
        for c, chan in enumerate(got):
            assert chan.dtype == np.float64 and chan.flags.c_contiguous and chan.flags.writeable
            assert np.array_equal(chan, interleaved[:, :, c])

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_decode_peaks_at_its_planes_and_raster(self, maxval):
        # three float planes plus the raster bytes: no interleaved float copy
        rng = np.random.default_rng(7)
        data = write_pnm([rng.random((128, 256)) for _ in range(3)], maxval)
        peak = peak_bytes(lambda: read_pnm(data))
        plane = 128 * 256 * 8
        raster = 3 * 128 * 256 * (1 if maxval == 255 else 2)
        assert peak <= 3 * plane + raster + 16384

    @pytest.mark.parametrize("data,reason", MALFORMED)
    def test_malformed_rejected_with_reason(self, data, reason):
        with pytest.raises(PnmError) as err:
            read_pnm(data)
        assert err.value.reason == reason
        assert err.value.offset >= 0

    @pytest.mark.parametrize("data,reason,offset", [
        # a field that is not an integer: its first byte, past the comment
        (b"P5\n# c\n  x 2\n255\n", "header", 9),
        # an unsupported maxval: the byte just past the field
        (b"P5\n2 2\n   70000\n", "maxval", 15),
        # a field of more digits than int() converts: its first byte
        (b"P5\n" + b"1" * 5000 + b" 2\n255\n", "header", 3),
    ], ids=["field", "maxval", "digits"])
    def test_header_error_points_where_decoding_stopped(self, data, reason, offset):
        with pytest.raises(PnmError) as err:
            read_pnm(data)
        assert (err.value.reason, err.value.offset) == (reason, offset)
        assert str(err.value).endswith(f"(at byte {offset})")

    def test_every_magic_mutation_rejected(self):
        for i in range(2):
            for b in range(256):
                mutated = bytearray(VALID_P5)
                if mutated[i] == b:
                    continue
                mutated[i] = b
                with pytest.raises(PnmError):
                    read_pnm(bytes(mutated))


class TestWrite:
    def test_header_and_payload(self):
        data = write_pnm([np.ones((1, 1))], maxval=255)
        assert data == b"P5\n1 1\n255\n" + bytes([255])

    def test_round_half_away(self):
        data = write_pnm([np.full((1, 1), 0.5)], maxval=255)
        assert data[-1] == 128

    def test_clamps_out_of_range(self):
        data = write_pnm([np.array([[-1.0, 2.0]])], maxval=255)
        assert data[-2:] == bytes([0, 255])

    @pytest.mark.parametrize("maxval", [0, 65536])
    def test_bad_maxval(self, maxval):
        with pytest.raises(ValueError, match="unsupported maxval"):
            write_pnm([np.ones((2, 2))], maxval=maxval)

    def test_bad_channel_count(self):
        with pytest.raises(ValueError):
            write_pnm([np.ones((2, 2))] * 2, maxval=255)

    @pytest.mark.parametrize("maxval", [255, 65535])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad, channels, maxval):
        imgs = [np.full((3, 4), 0.5) for _ in range(channels)]
        imgs[-1][0, 0] = imgs[-1][1, 2] = bad
        with pytest.raises(ValueError, match=rf"channel {channels - 1} has 2 non-finite"):
            write_pnm(imgs, maxval)

    def test_rejected_image_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "kept.pgm"
        write_pnm_file(path, [np.full((2, 2), 0.5)])
        before = path.read_bytes()
        with pytest.raises(ValueError, match="non-finite"):
            write_pnm_file(path, [np.full((2, 2), np.nan)])
        assert path.read_bytes() == before


def _stacked_encoder(channels, maxval):
    """The earlier encoder: uint32 planes per channel, then np.stack."""
    chans = [np.asarray(c, dtype=np.float64) for c in channels]
    height, width = chans[0].shape
    quantized = [
        np.floor(np.clip(c, 0.0, 1.0) * maxval + 0.5).astype(np.uint32) for c in chans
    ]
    if len(chans) == 1:
        magic, samples = b"P5", quantized[0]
    else:
        magic = b"P6"
        samples = np.stack(quantized, axis=-1).reshape(height, width * 3)
    dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
    return magic + b"\n%d %d\n%d\n" % (width, height, maxval) + samples.astype(dtype).tobytes()


class TestEncoderBytes:
    @pytest.mark.parametrize("maxval", [255, 65535])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_matches_stacked_encoder(self, maxval, channels):
        rng = np.random.default_rng(maxval * channels)
        # values on and next to the .5 quantization boundaries, plus clamped ones
        k = rng.integers(0, maxval, (3, 17, 13))
        halves = (k + 0.5) / maxval
        near = np.stack([halves, np.nextafter(halves, 0.0), np.nextafter(halves, 1.0)])
        imgs = [near[i % 3, i] for i in range(channels)]
        imgs[0][0, :4] = [-0.3, 0.0, 1.0, 1.7]
        imgs[-1] = imgs[-1][:, ::-1]  # a non-contiguous view
        assert write_pnm(imgs, maxval) == _stacked_encoder(imgs, maxval)


class TestRoundTrip:
    @pytest.mark.parametrize("maxval", [255, 65535])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_quantization_bound(self, maxval, channels):
        rng = np.random.default_rng(maxval + channels)
        imgs = [rng.random((9, 7)) for _ in range(channels)]
        back = read_pnm(write_pnm(imgs, maxval))
        for orig, rec in zip(imgs, back):
            assert np.max(np.abs(orig - rec)) <= 0.5 / maxval + 1e-12

    def test_write_read_write_stable(self):
        rng = np.random.default_rng(42)
        img = rng.random((6, 6))
        once = write_pnm([img], 65535)
        twice = write_pnm(read_pnm(once), 65535)
        assert once == twice


class TestAnyMaxval:
    @pytest.mark.parametrize("maxval,width", [(1, 1), (15, 1), (255, 1), (256, 2), (1023, 2), (4095, 2)])
    def test_sample_width(self, maxval, width):
        data = write_pnm([np.full((2, 3), 1.0)], maxval)
        header = b"P5\n3 2\n%d\n" % maxval
        assert data == header + maxval.to_bytes(width, "big") * 6

    @pytest.mark.parametrize("maxval", [1, 15, 1023, 4095])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_round_trip(self, maxval, channels):
        rng = np.random.default_rng(maxval + channels)
        imgs = [rng.random((9, 7)) for _ in range(channels)]
        data = write_pnm(imgs, maxval)
        back = read_pnm(data)
        for orig, rec in zip(imgs, back):
            assert np.max(np.abs(orig - rec)) <= 0.5 / maxval + 1e-12
            assert np.array_equal(rec * maxval, np.round(rec * maxval))
        assert write_pnm(back, maxval) == data

    def test_decodes_raw_over_maxval(self):
        raster = b"".join(v.to_bytes(2, "big") for v in (0, 1, 999, 1000))
        chan = read_pnm(b"P5\n4 1\n1000\n" + raster)[0]
        assert np.array_equal(chan, np.array([[0, 1, 999, 1000]]) / 1000)

    @pytest.mark.parametrize("maxval,bad_at", [(1, 2), (15, 3), (1023, 1), (4095, 4)])
    def test_sample_above_maxval_rejected(self, maxval, bad_at):
        width = 1 if maxval < 256 else 2
        values = [maxval] * 6
        values[bad_at] = maxval + 1
        header = b"P6\n2 1\n%d\n" % maxval
        data = header + b"".join(v.to_bytes(width, "big") for v in values)
        with pytest.raises(PnmError) as err:
            read_pnm(data)
        assert err.value.reason == "sample"
        assert err.value.offset == len(header) + bad_at * width


class TestQuantize:
    @pytest.mark.parametrize("maxval,dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16)])
    def test_sample_type(self, maxval, dtype):
        q = quantize(np.array([[-0.5, 0.0, 0.5, 1.0, 2.0]]), maxval)
        assert q.dtype == dtype
        assert q.tolist() == [[0, 0, (maxval + 1) // 2, maxval, maxval]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_by_name(self, bad):
        img = np.full((3, 4), 0.5)
        img[1, 1] = bad
        with pytest.raises(ValueError, match=r"channel 2 has 1 non-finite samples"):
            quantize(img, 65535, "channel 2")

    @pytest.mark.parametrize("maxval", [15, 255, 1023, 65535])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_write_takes_samples_as_they_are(self, maxval, channels):
        rng = np.random.default_rng(maxval)
        imgs = [rng.random((5, 6)) for _ in range(channels)]
        mixed = [quantize(c, maxval) if i % 2 == 0 else c for i, c in enumerate(imgs)]
        assert write_pnm(mixed, maxval) == write_pnm(imgs, maxval)

    def test_write_rejects_samples_above_maxval(self):
        samples = np.array([[3, 16]], dtype=np.uint8)
        with pytest.raises(ValueError, match="channel 0 has samples above maxval 15"):
            write_pnm([samples], 15)

    @pytest.mark.parametrize(
        "dtype,maxval,expected",
        [(np.uint8, 65535, "uint16"), (np.uint16, 255, "uint8"),
         (np.int64, 255, "uint8"), (np.int64, 65535, "uint16"), (np.int32, 15, "uint8")],
    )
    def test_write_rejects_integer_planes_of_another_type(self, dtype, maxval, expected):
        # read as [0, 1] levels, every sample above 1 would clip to maxval
        samples = np.array([[0, 1, 100, 255]], dtype=dtype)
        ok = np.zeros((1, 4))
        with pytest.raises(ValueError, match=f"channel 1 has dtype {np.dtype(dtype)}, "
                                             f"expected {expected} at maxval {maxval}"):
            write_pnm([ok, samples, ok], maxval)
