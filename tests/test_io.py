import numpy as np
import pytest

from fracdim import ParseError, PointCloud, WeightedNetwork, sierpinski_tree, SierpinskiTreeParams
from fracdim.io import (
    dumps_network,
    dumps_pointcloud,
    load_network,
    load_pointcloud,
    save_network,
    save_pointcloud,
)


def test_pointcloud_roundtrip(tmp_path, random_cloud):
    cloud = random_cloud(37, dim=3, seed=1)
    path = tmp_path / "cloud.csv"
    save_pointcloud(cloud, path)
    assert load_pointcloud(path) == cloud


def test_pointcloud_roundtrip_exact_bits(tmp_path):
    cloud = PointCloud(np.array([[1 / 3, 2 / 7], [np.pi, np.e]]))
    path = tmp_path / "cloud.csv"
    save_pointcloud(cloud, path)
    assert np.array_equal(load_pointcloud(path).points, cloud.points)


def test_pointcloud_format_no_header(tmp_path):
    cloud = PointCloud(np.array([[0.5, 1.25]]))
    assert dumps_pointcloud(cloud) == "0.5,1.25\n"


def test_pointcloud_rejects_nan_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0\n0.5,nan\n")
    with pytest.raises(ParseError) as err:
        load_pointcloud(path)
    assert err.value.line_no == 2


def test_pointcloud_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0\n0.5\n")
    with pytest.raises(ParseError) as err:
        load_pointcloud(path)
    assert err.value.line_no == 2


def test_network_roundtrip(tmp_path):
    net = sierpinski_tree(SierpinskiTreeParams(3, 0.5, 3))
    path = tmp_path / "net.edges"
    save_network(net, path)
    assert load_network(path) == net


def test_network_node_count_from_max_id(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("0 5 1.0\n")
    assert load_network(path).node_count == 6


def test_network_rejects_negative_weight(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("0 1 1.0\n1 2 -3.0\n")
    with pytest.raises(ParseError) as err:
        load_network(path)
    assert err.value.line_no == 2


def test_network_rejects_nan_weight(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("0 1 nan\n")
    with pytest.raises(ParseError) as err:
        load_network(path)
    assert err.value.line_no == 1


def test_network_rejects_non_integer_ids(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("0.5 1 1.0\n")
    with pytest.raises(ParseError):
        load_network(path)


def test_network_dump_format():
    net = WeightedNetwork(3, ((0, 1, 0.5), (1, 2, 1.0)))
    assert dumps_network(net) == "0 1 0.5\n1 2 1\n"


@pytest.mark.parametrize("load, text, message", [
    (load_pointcloud, "0,0\n0,1_0\n", "invalid coordinate in '0,1_0'"),
    (load_network, "0 1 1\n0 1 1_0\n", "invalid weight '1_0'"),
])
def test_underscore_in_a_number_is_refused(tmp_path, load, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load(path)
    assert str(err.value) == f"{path}:2: {message}"


@pytest.mark.parametrize("load, data", [
    (load_pointcloud, b"0,0\n0,1\xc3\xa9\n"),
    (load_network, b"0 1 1\r\n1 2 \xc3\r\n"),
    (load_network, b"0 1 1\r1 2 \xc3\r"),
])
def test_non_ascii_byte_names_its_line(tmp_path, load, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load(path)
    assert str(err.value) == f"{path}:2: non-ASCII byte"
