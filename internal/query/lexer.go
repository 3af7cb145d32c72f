// Package query implements the CARDIRECT query language of §4 of the paper:
// conjunctive queries over region variables whose conditions are
//
//   - direct region bindings        x = attica
//   - thematic attribute filters    color(x) = red
//   - cardinal direction filters    x S:SW:W y   or   x {N, NW:N} y
//
// in the concrete syntax
//
//	q(x, y) :- color(x) = red, color(y) = blue, x S:SW:W:NW:N:NE:E:SE y
//
// Queries are parsed into an AST, checked, and evaluated against a CARDIRECT
// configuration (config.Image) by a backtracking join; direction relations
// between candidate regions are computed once per ordered pair with the
// paper's Compute-CDR algorithm and cached.
package query

import (
	"fmt"
	"unicode"
)

// tokenKind enumerates lexical token types.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokColon
	tokEquals
	tokNotEquals // "!="
	tokCmp       // ">=", "<=", ">", "<"
	tokNumber
	tokTurnstile // ":-"
	tokParam     // "$name" — a prepared-query parameter
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokComma:
		return "','"
	case tokColon:
		return "':'"
	case tokEquals:
		return "'='"
	case tokNotEquals:
		return "'!='"
	case tokCmp:
		return "comparison operator"
	case tokNumber:
		return "number"
	case tokTurnstile:
		return "':-'"
	case tokParam:
		return "parameter"
	default:
		return "unknown token"
	}
}

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lex splits the input into tokens. Identifiers consist of letters, digits,
// '_' and '-' (region ids like "south-italy" are single tokens; the ":-"
// turnstile is recognised before ':').
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ':' && i+1 < len(input) && input[i+1] == '-':
			toks = append(toks, token{tokTurnstile, ":-", i})
			i += 2
		case c == ':':
			toks = append(toks, token{tokColon, ":", i})
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == '{':
			toks = append(toks, token{tokLBrace, "{", i})
			i++
		case c == '}':
			toks = append(toks, token{tokRBrace, "}", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '=':
			toks = append(toks, token{tokEquals, "=", i})
			i++
		case c == '!' && i+1 < len(input) && input[i+1] == '=':
			toks = append(toks, token{tokNotEquals, "!=", i})
			i += 2
		case c == '>' || c == '<':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokCmp, input[i : i+2], i})
				i += 2
			} else {
				toks = append(toks, token{tokCmp, input[i : i+1], i})
				i++
			}
		case c >= '0' && c <= '9':
			j := i
			for j < len(input) && (input[j] >= '0' && input[j] <= '9' || input[j] == '.') {
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case c == '$':
			j := i + 1
			for j < len(input) && isIdentRune(rune(input[j])) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("query: '$' must introduce a parameter name at offset %d", i)
			}
			// The token text keeps the '$' prefix: region ids cannot start
			// with '$', so downstream code distinguishes parameters by it.
			toks = append(toks, token{tokParam, input[i:j], i})
			i = j
		case isIdentRune(rune(c)):
			j := i
			for j < len(input) && isIdentRune(rune(input[j])) {
				j++
			}
			toks = append(toks, token{tokIdent, input[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("query: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

// describe renders a token for error messages.
func describe(t token) string {
	if t.kind == tokIdent {
		return fmt.Sprintf("%q", t.text)
	}
	return t.kind.String()
}
