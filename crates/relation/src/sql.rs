//! Rendering inferred join predicates as SQL and as GAV schema mappings.
//!
//! The paper (§1) observes that JIM's output "can be eventually seen as
//! simple GAV mappings"; this module produces both a `SELECT` statement a
//! user could paste into a database and a datalog-style GAV rule.

use crate::error::Result;
use crate::join::JoinSpec;
use crate::schema::JoinSchema;

/// Render `spec` as `SELECT * FROM … WHERE …` over `schema`.
///
/// Relation occurrences get aliases `r1, r2, …` so self-joins are valid SQL.
pub fn to_select(schema: &JoinSchema, spec: &JoinSpec) -> Result<String> {
    spec.check(schema)?;
    let mut sql = String::from("SELECT *\nFROM ");
    for (i, rel) in schema.relations().iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push_str(rel.name());
        sql.push_str(" AS ");
        schema.write_sql_alias(i, &mut sql);
    }
    if !spec.is_always() {
        sql.push_str("\nWHERE ");
        for (i, &(a, b)) in spec.pairs().iter().enumerate() {
            if i > 0 {
                sql.push_str("\n  AND ");
            }
            let (ra, la) = schema.locate(a)?;
            let (rb, lb) = schema.locate(b)?;
            schema.write_sql_alias(ra, &mut sql);
            sql.push('.');
            sql.push_str(&schema.relations()[ra].attributes()[la].name);
            sql.push_str(" = ");
            schema.write_sql_alias(rb, &mut sql);
            sql.push('.');
            sql.push_str(&schema.relations()[rb].attributes()[lb].name);
        }
    }
    sql.push(';');
    Ok(sql)
}

/// Render `spec` as a GAV (global-as-view) mapping rule:
/// `Target(x1, …, xk) :- R1(…), R2(…).` where join variables are shared.
///
/// Each equivalence class of attributes connected by atoms shares one
/// variable; remaining attributes get fresh variables.
pub fn to_gav_rule(schema: &JoinSchema, spec: &JoinSpec, target: &str) -> Result<String> {
    spec.check(schema)?;
    let n = schema.num_attrs();

    // Union-find over global attributes to name shared variables.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for &(a, b) in spec.pairs() {
        let (ra, rb) = (find(&mut parent, a.index()), find(&mut parent, b.index()));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    }

    // Assign variable names x1, x2, … by first occurrence of each class.
    let mut names: Vec<Option<String>> = vec![None; n];
    let mut next = 0usize;
    let mut var_of = |parent: &mut Vec<usize>, g: usize, names: &mut Vec<Option<String>>| {
        let root = find(parent, g);
        if names[root].is_none() {
            next += 1;
            names[root] = Some(format!("x{next}"));
        }
        names[root].clone().expect("just set")
    };

    let mut body = String::new();
    let mut head_vars: Vec<String> = Vec::new();
    let mut global = 0usize;
    for (i, rel) in schema.relations().iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(rel.name());
        body.push('(');
        for (j, _) in rel.attributes().iter().enumerate() {
            if j > 0 {
                body.push_str(", ");
            }
            let v = var_of(&mut parent, global, &mut names);
            if !head_vars.contains(&v) {
                head_vars.push(v.clone());
            }
            body.push_str(&v);
            global += 1;
        }
        body.push(')');
    }
    Ok(format!("{}({}) :- {}.", target, head_vars.join(", "), body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::spec_by_names;
    use crate::schema::RelationSchema;
    use crate::value::DataType;

    fn schema() -> JoinSchema {
        JoinSchema::new(vec![
            RelationSchema::of(
                "flights",
                &[
                    ("From", DataType::Text),
                    ("To", DataType::Text),
                    ("Airline", DataType::Text),
                ],
            )
            .unwrap(),
            RelationSchema::of(
                "hotels",
                &[("City", DataType::Text), ("Discount", DataType::Text)],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn select_with_predicate() {
        let s = schema();
        let spec = spec_by_names(
            &s,
            &[((0, "To"), (1, "City")), ((0, "Airline"), (1, "Discount"))],
        )
        .unwrap();
        let sql = to_select(&s, &spec).unwrap();
        assert_eq!(
            sql,
            "SELECT *\nFROM flights AS r1, hotels AS r2\nWHERE r1.To = r2.City\n  AND r1.Airline = r2.Discount;"
        );
    }

    #[test]
    fn select_without_predicate_is_cross_product() {
        let s = schema();
        let sql = to_select(&s, &JoinSpec::always()).unwrap();
        assert_eq!(sql, "SELECT *\nFROM flights AS r1, hotels AS r2;");
    }

    #[test]
    fn gav_rule_shares_join_variables() {
        let s = schema();
        let spec = spec_by_names(&s, &[((0, "To"), (1, "City"))]).unwrap();
        let rule = to_gav_rule(&s, &spec, "Package").unwrap();
        assert_eq!(
            rule,
            "Package(x1, x2, x3, x4) :- flights(x1, x2, x3), hotels(x2, x4)."
        );
    }

    #[test]
    fn gav_rule_transitive_classes() {
        // To = City and City = Discount puts three attributes in one class.
        let s = schema();
        let spec = spec_by_names(
            &s,
            &[((0, "To"), (1, "City")), ((1, "City"), (1, "Discount"))],
        )
        .unwrap();
        let rule = to_gav_rule(&s, &spec, "T").unwrap();
        assert_eq!(
            rule,
            "T(x1, x2, x3) :- flights(x1, x2, x3), hotels(x2, x2)."
        );
    }

    #[test]
    fn gav_rule_no_atoms() {
        let s = schema();
        let rule = to_gav_rule(&s, &JoinSpec::always(), "All").unwrap();
        assert_eq!(
            rule,
            "All(x1, x2, x3, x4, x5) :- flights(x1, x2, x3), hotels(x4, x5)."
        );
    }

    #[test]
    fn self_join_aliases() {
        let h = RelationSchema::of("h", &[("a", DataType::Int)]).unwrap();
        let s = JoinSchema::new(vec![h.clone(), h]).unwrap();
        let spec = spec_by_names(&s, &[((0, "a"), (1, "a"))]).unwrap();
        let sql = to_select(&s, &spec).unwrap();
        assert_eq!(sql, "SELECT *\nFROM h AS r1, h AS r2\nWHERE r1.a = r2.a;");
    }
}
