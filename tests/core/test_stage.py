"""Tests for stages and classification (paper Section 3.3)."""

import pytest

from repro.core import (Classifier, Stage, StageError, WILDCARD,
                        http_stage, memcached_stage, storage_stage)


@pytest.fixture
def stage():
    return memcached_stage()


class TestStageInfo:
    def test_get_stage_info(self, stage):
        info = stage.get_stage_info()
        assert info.name == "memcached"
        assert "msg_type" in info.classifier_fields
        assert "key" in info.classifier_fields
        assert set(info.metadata_fields) >= {"msg_id", "msg_type",
                                             "key", "msg_size"}

    def test_http_stage_matches_table2(self):
        info = http_stage().get_stage_info()
        assert info.classifier_fields == ("msg_type", "url")

    def test_storage_stage(self):
        info = storage_stage().get_stage_info()
        assert "op_type" in info.classifier_fields


class TestRuleManagement:
    def test_create_returns_unique_ids(self, stage):
        a = stage.create_stage_rule("r1", Classifier.of(
            msg_type="GET"), "GET", ["msg_id"])
        b = stage.create_stage_rule("r1", Classifier.of(
            msg_type="PUT"), "PUT", ["msg_id"])
        assert a != b

    def test_unknown_classifier_field_rejected(self, stage):
        with pytest.raises(StageError, match="cannot classify"):
            stage.create_stage_rule("r1", Classifier.of(color="red"),
                                    "C", ["msg_id"])

    def test_unknown_metadata_field_rejected(self, stage):
        with pytest.raises(StageError, match="cannot generate"):
            stage.create_stage_rule("r1", Classifier.of(
                msg_type="GET"), "GET", ["bogus"])

    def test_remove_rule(self, stage):
        rid = stage.create_stage_rule("r1", Classifier.of(
            msg_type="GET"), "GET", ["msg_id"])
        stage.remove_stage_rule("r1", rid)
        assert stage.classify({"msg_type": "GET"}) == []

    def test_remove_unknown_rule_rejected(self, stage):
        with pytest.raises(StageError):
            stage.remove_stage_rule("r1", 999)

    def test_remove_wrong_rule_set_rejected(self, stage):
        rid = stage.create_stage_rule("r1", Classifier.of(
            msg_type="GET"), "GET", ["msg_id"])
        with pytest.raises(StageError):
            stage.remove_stage_rule("r2", rid)
        # The refused call removed nothing: the rule still classifies
        # and can still be removed from the rule set it belongs to.
        assert [r.rule_id for r in stage.rules()] == [rid]
        assert len(stage.classify({"msg_type": "GET"})) == 1
        stage.remove_stage_rule("r1", rid)
        assert stage.rules() == []

    def test_has_rules_follows_install_and_remove(self, stage):
        assert not stage.has_rules()
        first = stage.create_stage_rule("r1", Classifier.of(
            msg_type="GET"), "GET", ["msg_id"])
        second = stage.create_stage_rule("r2", Classifier.of(
            msg_type="PUT"), "PUT", ["msg_id"])
        assert stage.has_rules()
        stage.remove_stage_rule("r1", first)
        assert stage.has_rules()
        stage.remove_stage_rule("r2", second)
        assert not stage.has_rules()
        # No emptied rule set is left behind to be walked per message.
        assert stage._rule_sets == {}


class TestClassification:
    """The rule-sets of paper Figure 6."""

    @pytest.fixture
    def fig6(self, stage):
        stage.create_stage_rule("r1", Classifier.of(msg_type="GET"),
                                "GET", ["msg_id", "msg_size"])
        stage.create_stage_rule("r1", Classifier.of(msg_type="PUT"),
                                "PUT", ["msg_id", "msg_size"])
        stage.create_stage_rule("r2", Classifier.of(),
                                "DEFAULT", ["msg_id", "msg_size"])
        stage.create_stage_rule("r3",
                                Classifier.of(msg_type="GET", key="a"),
                                "GETA", ["msg_id", "msg_size"])
        stage.create_stage_rule("r3",
                                Classifier.of(msg_type=WILDCARD,
                                              key="a"),
                                "A", ["msg_id", "msg_size"])
        stage.create_stage_rule("r3",
                                Classifier.of(msg_type=WILDCARD,
                                              key=WILDCARD),
                                "OTHER", ["msg_id", "msg_size"])
        return stage

    def test_put_for_key_a(self, fig6):
        # Paper: a PUT for key "a" belongs to memcached.r1.PUT,
        # memcached.r2.DEFAULT, and memcached.r3.A.
        classes = {c.class_name for c in fig6.classify(
            {"msg_type": "PUT", "key": "a", "msg_size": 100})}
        assert classes == {"memcached.r1.PUT",
                           "memcached.r2.DEFAULT",
                           "memcached.r3.A"}

    def test_get_for_key_a_hits_most_specific(self, fig6):
        classes = {c.class_name for c in fig6.classify(
            {"msg_type": "GET", "key": "a"})}
        assert "memcached.r3.GETA" in classes

    def test_get_for_other_key(self, fig6):
        classes = {c.class_name for c in fig6.classify(
            {"msg_type": "GET", "key": "z"})}
        assert "memcached.r3.OTHER" in classes
        assert "memcached.r1.GET" in classes

    def test_at_most_one_class_per_rule_set(self, fig6):
        results = fig6.classify({"msg_type": "GET", "key": "a"})
        rule_sets = [c.class_name.split(".")[1] for c in results]
        assert len(rule_sets) == len(set(rule_sets))

    def test_metadata_includes_requested_fields(self, fig6):
        cls = fig6.classify({"msg_type": "GET", "key": "a",
                             "msg_size": 4096})
        for c in cls:
            assert c.metadata["msg_size"] == 4096
            assert c.message_id is not None

    def test_message_ids_unique_per_message(self, fig6):
        first = fig6.classify({"msg_type": "GET", "key": "a"})
        second = fig6.classify({"msg_type": "GET", "key": "a"})
        assert first[0].message_id != second[0].message_id

    def test_same_message_same_id_across_rule_sets(self, fig6):
        results = fig6.classify({"msg_type": "PUT", "key": "a"})
        ids = {c.message_id for c in results}
        assert len(ids) == 1

    def test_explicit_msg_id_respected(self, fig6):
        results = fig6.classify({"msg_type": "GET", "key": "a"},
                                msg_id=1234)
        assert results[0].message_id == ("memcached", 1234)


class TestClassifier:
    def test_wildcard_matches_anything(self):
        c = Classifier.of(msg_type=WILDCARD)
        assert c.covers({"msg_type": "GET"})
        assert c.covers({})

    def test_empty_classifier_matches_all(self):
        assert Classifier.of().covers({"anything": 1})

    def test_specificity_ordering(self):
        assert Classifier.of(a=1, b=2).specificity == 2
        assert Classifier.of(a=1, b=WILDCARD).specificity == 1
        assert Classifier.of().specificity == 0

    def test_exact_match_required(self):
        c = Classifier.of(key="a")
        assert c.covers({"key": "a"})
        assert not c.covers({"key": "b"})
        assert not c.covers({})

    def test_str_rendering(self):
        assert "msg_type" in str(Classifier.of(msg_type="GET"))
