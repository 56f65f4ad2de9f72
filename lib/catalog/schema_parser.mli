(** Parser for schema-definition scripts: catalogs described in text.

    {v
    CREATE TABLE users ROWS 500000 (
      id INT SERIAL,
      country INT UNIFORM(0, 99),
      income FLOAT NORMAL(60000, 25000),
      segment INT ZIPF(8, 0.4),
      name VARCHAR(40)
    );
    CREATE TABLE posts ROWS 5000000 (
      id INT SERIAL,
      author INT REFERENCES users(id),
      score INT ZIPF(1000, 0.9)
    );
    v}

    [REFERENCES parent(key)] sets a uniform distribution over the parent's
    key range and records an edge in the returned foreign-key join graph
    (what the random workload generator walks). *)

exception Schema_error of string

val parse :
  ?seed:int ->
  string ->
  Catalog.t * (Relax_sql.Types.column * Relax_sql.Types.column) list
(** @raise Schema_error on malformed input: a syntax error, no table, a
    duplicate table or column, or a [REFERENCES] to a table or column the
    script does not define.
    @raise Relax_sql.Lexer.Lex_error on invalid tokens. *)
