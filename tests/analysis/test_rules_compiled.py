"""Positive/negative cases for the compiled-class rule OBI102 (OBI306 has
its own fixture in ``test_wire_fixtures.py``)."""


class TestInterfaceShadowing:
    def test_get_put_demand_flagged(self, lint):
        findings = lint(
            """
            from repro import obiwan

            @obiwan.compile
            class Bad:
                def get(self):
                    pass

                def put(self, pkg):
                    pass

                def demand(self):
                    pass
            """,
            rule="OBI102",
        )
        assert {f.rule for f in findings} == {"OBI102"}
        assert len(findings) == 3

    def test_get_version_and_update_member_flagged(self, lint):
        findings = lint(
            """
            from repro import obiwan

            @obiwan.compile
            class Bad:
                def get_version(self):
                    pass

                def updateMember(self, m):
                    pass
            """,
            rule="OBI102",
        )
        assert len(findings) == 2

    def test_prefixed_names_pass(self, lint):
        findings = lint(
            """
            from repro import obiwan

            @obiwan.compile
            class Good:
                def get_title(self):
                    pass

                def put_away(self):
                    pass
            """,
            rule="OBI102",
        )
        assert findings == []

    def test_private_control_name_passes(self, lint):
        findings = lint(
            """
            from repro import obiwan

            @obiwan.compile
            class Good:
                def _get(self):
                    pass

                def act(self):
                    pass
            """,
            rule="OBI102",
        )
        assert findings == []
