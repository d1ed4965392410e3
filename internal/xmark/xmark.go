// Package xmark is the workload substrate for reproducing the paper's
// Figure 4: an XMark-like auction-site document generator (a stand-in for
// the xmlgen tool, V0.96), the adapted attribute-free DTD, and the five
// adapted benchmark queries Q1, Q8, Q11, Q13 and Q20 from Appendix A.
//
// The adaptation follows the paper exactly: attributes become leading
// subelements named parent_attr (person id="..." → person_id), text() and
// count() are dropped in favour of whole-element output, and queries use
// absolute paths with the implicit $ROOT.
package xmark

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
)

// DTD is the adapted XMark document type definition. Element order inside
// site (people before open_auctions before closed_auctions) and inside
// person/item (ids and names before the rest) carries the order
// constraints the scheduler exploits.
const DTD = `
<!ELEMENT site (regions,categories,catgraph,people,open_auctions,closed_auctions)>
<!ELEMENT regions (africa,asia,australia,europe,namerica,samerica)>
<!ELEMENT africa (item)*>
<!ELEMENT asia (item)*>
<!ELEMENT australia (item)*>
<!ELEMENT europe (item)*>
<!ELEMENT namerica (item)*>
<!ELEMENT samerica (item)*>
<!ELEMENT item (item_id,location,quantity,name,payment,description,shipping,incategory+,mailbox)>
<!ELEMENT item_id (#PCDATA)>
<!ELEMENT location (#PCDATA)>
<!ELEMENT quantity (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT payment (#PCDATA)>
<!ELEMENT description (text)>
<!ELEMENT text (#PCDATA)>
<!ELEMENT shipping (#PCDATA)>
<!ELEMENT incategory (category_ref)>
<!ELEMENT category_ref (#PCDATA)>
<!ELEMENT mailbox (mail)*>
<!ELEMENT mail (from,to,date,text)>
<!ELEMENT from (#PCDATA)>
<!ELEMENT to (#PCDATA)>
<!ELEMENT date (#PCDATA)>
<!ELEMENT categories (category)+>
<!ELEMENT category (category_id,name,description)>
<!ELEMENT category_id (#PCDATA)>
<!ELEMENT catgraph (edge)*>
<!ELEMENT edge (edge_from,edge_to)>
<!ELEMENT edge_from (#PCDATA)>
<!ELEMENT edge_to (#PCDATA)>
<!ELEMENT people (person)*>
<!ELEMENT person (person_id,name,emailaddress,phone?,address?,person_income?,profile?,watches?)>
<!ELEMENT person_id (#PCDATA)>
<!ELEMENT person_income (#PCDATA)>
<!ELEMENT emailaddress (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
<!ELEMENT address (street,city,country,zipcode)>
<!ELEMENT street (#PCDATA)>
<!ELEMENT city (#PCDATA)>
<!ELEMENT country (#PCDATA)>
<!ELEMENT zipcode (#PCDATA)>
<!ELEMENT profile (profile_income?,interest*,education?,business)>
<!ELEMENT profile_income (#PCDATA)>
<!ELEMENT interest (interest_category)>
<!ELEMENT interest_category (#PCDATA)>
<!ELEMENT education (#PCDATA)>
<!ELEMENT business (#PCDATA)>
<!ELEMENT watches (watch)*>
<!ELEMENT watch (watch_open_auction)>
<!ELEMENT watch_open_auction (#PCDATA)>
<!ELEMENT open_auctions (open_auction)*>
<!ELEMENT open_auction (open_auction_id,initial,reserve?,bidder*,current,itemref,seller,quantity,type,interval)>
<!ELEMENT open_auction_id (#PCDATA)>
<!ELEMENT initial (#PCDATA)>
<!ELEMENT reserve (#PCDATA)>
<!ELEMENT bidder (date,personref,increase)>
<!ELEMENT personref (personref_person)>
<!ELEMENT personref_person (#PCDATA)>
<!ELEMENT increase (#PCDATA)>
<!ELEMENT current (#PCDATA)>
<!ELEMENT itemref (itemref_item)>
<!ELEMENT itemref_item (#PCDATA)>
<!ELEMENT seller (seller_person)>
<!ELEMENT seller_person (#PCDATA)>
<!ELEMENT type (#PCDATA)>
<!ELEMENT interval (start,end)>
<!ELEMENT start (#PCDATA)>
<!ELEMENT end (#PCDATA)>
<!ELEMENT closed_auctions (closed_auction)*>
<!ELEMENT closed_auction (closed_auction_id,seller,buyer,itemref,price,date,quantity,type,annotation?)>
<!ELEMENT closed_auction_id (#PCDATA)>
<!ELEMENT buyer (buyer_person)>
<!ELEMENT buyer_person (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT annotation (author,description,happiness)>
<!ELEMENT author (author_person)>
<!ELEMENT author_person (#PCDATA)>
<!ELEMENT happiness (#PCDATA)>
`

// Queries are the five adapted XMark queries of the paper's Appendix A,
// keyed q1, q8, q11, q13, q20.
var Queries = map[string]string{
	// Q1: fully streamable filter (Figure 4 row Q1 runs with zero buffer).
	"q1": `<query1>
{ for $b in /site/people/person
  where $b/person_id = 'person0'
  return
  <result> {$b/name} </result> }
</query1>`,

	// Q8: value join of persons with closed auctions ("items bought").
	"q8": `<query8>
{ for $p in /site/people/person return
  <item>
  <person> {$p/name} </person>
  <items_bought>
  { for $t in /site/closed_auctions/closed_auction
    where $t/buyer/buyer_person = $p/person_id
    return <result> {$t} </result> }
  </items_bought>
  </item> }
</query8>`,

	// Q11: value join with arithmetic over incomes and initial prices.
	"q11": `<query11>
{ for $p in /site/people/person return
  <items>
  {$p/name}
  { for $o in /site/open_auctions/open_auction
    where $p/profile/profile_income > (5000 * $o/initial)
    return {$o/open_auction_id} }
  </items> }
</query11>`,

	// Q13: streamable reconstruction of the australia items.
	"q13": `<query13>
{ for $i in /site/regions/australia/item return
  <item>
  <name> {$i/name} </name>
  <desc> {$i/description} </desc>
  </item> }
</query13>`,

	// Q20: persons whose income is not available; buffers one person at a
	// time.
	"q20": `<query20>
{ for $p in /site/people/person
  where empty($p/person_income)
  return {$p} }
</query20>`,
}

// QueryNames lists the benchmark queries in Figure 4 order.
var QueryNames = []string{"q1", "q8", "q11", "q13", "q20"}

// FanoutQueries are narrow queries with pairwise-disjoint projected
// paths — one per top-level branch of the site — so selective fan-out
// can route each to a different slice of the document. They drive
// BenchmarkSelectiveFanout and are the fanout queries of the
// serve-closed workload of benchmark/.
var FanoutQueries = []string{
	`<q> { for $i in /site/regions/australia/item return {$i/item_id} } </q>`,
	`<q> { for $c in /site/categories/category return {$c/category_id} } </q>`,
	`<q> { for $e in /site/catgraph/edge return {$e/edge_from} } </q>`,
	`<q> { for $p in /site/people/person return {$p/person_id} } </q>`,
	`<q> { for $o in /site/open_auctions/open_auction return {$o/open_auction_id} } </q>`,
	`<q> { for $t in /site/closed_auctions/closed_auction return {$t/price} } </q>`,
}

// sharedPrefixTails are projected-path tails under /site/people/person,
// the raw material for SharedPrefixQueries: every generated query walks
// the same /site/people/person spine, so a batch of them exercises
// shared-prefix matching in the merged path automaton.
var sharedPrefixTails = []string{
	"person_id",
	"name",
	"emailaddress",
	"phone",
	"address",
	"address/street",
	"address/city",
	"address/country",
	"address/zipcode",
	"person_income",
	"profile",
	"profile/profile_income",
	"profile/interest",
	"profile/interest/interest_category",
	"profile/education",
	"profile/business",
	"watches",
	"watches/watch",
	"watches/watch/watch_open_auction",
}

// SharedPrefixQueries returns n queries that all iterate
// /site/people/person and project two person subpaths each — maximal
// path-prefix overlap across the batch, the workload where a merged
// automaton's one-traversal dispatch pays off most. The queries are
// pairwise distinct up to the number of subpath pairs (the enumeration
// cycles beyond that). They are the prefix queries of benchmark/'s
// serve-open, serve-closed, tier-http and stream-replay workloads.
func SharedPrefixQueries(n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		for i := 0; i < len(sharedPrefixTails) && len(out) < n; i++ {
			for j := i + 1; j < len(sharedPrefixTails) && len(out) < n; j++ {
				out = append(out, fmt.Sprintf(
					`<q> { for $p in /site/people/person return <r> {$p/%s} {$p/%s} </r> } </q>`,
					sharedPrefixTails[i], sharedPrefixTails[j]))
			}
		}
	}
	return out
}

// GenOptions configures document generation.
type GenOptions struct {
	// Scale follows xmlgen's knob: Figure 4's document sizes are obtained
	// via ScaleForBytes.
	Scale float64
	// Seed makes generation deterministic.
	Seed int64
}

// bytesPerScale is the approximate output size at Scale 1.0, measured
// once against the generator (see TestGenerateSizes).
const bytesPerScale = 55_000_000

// ScaleForBytes returns the Scale that yields approximately the requested
// document size.
func ScaleForBytes(n int64) float64 { return float64(n) / float64(bytesPerScale) }

// Generate writes an XMark-like document of the given scale to w and
// returns the number of bytes written.
func Generate(w io.Writer, opt GenOptions) (int64, error) {
	if opt.Scale <= 0 {
		opt.Scale = 0.01
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	g := &gen{
		w: bw,
		r: rand.New(rand.NewSource(opt.Seed + 1)),
	}
	// Entity counts at scale 1.0, in XMark's rough proportions.
	g.persons = scaleCount(25500, opt.Scale)
	g.items = scaleCount(21750, opt.Scale)
	g.openAuctions = scaleCount(12000, opt.Scale)
	g.closedAuctions = scaleCount(9750, opt.Scale)
	g.categories = scaleCount(1000, opt.Scale)

	g.site()
	if g.err != nil {
		return g.n, g.err
	}
	if err := bw.Flush(); err != nil {
		return g.n, err
	}
	return g.n, nil
}

func scaleCount(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 1 {
		n = 1
	}
	return n
}

type gen struct {
	w   *bufio.Writer
	r   *rand.Rand
	n   int64
	err error

	persons        int
	items          int
	openAuctions   int
	closedAuctions int
	categories     int
}

var words = []string{
	"mighty", "stockings", "crowns", "wherefore", "errand", "honour",
	"qualified", "shallow", "promise", "meadow", "gallant", "tempest",
	"fortune", "scatter", "bounty", "harvest", "copper", "lantern",
	"voyage", "whisper", "thunder", "castle", "marble", "velvet",
}

func (g *gen) emit(s string) {
	if g.err != nil {
		return
	}
	m, err := g.w.WriteString(s)
	g.n += int64(m)
	g.err = err
}

func (g *gen) leaf(tag, val string) {
	g.emit("<")
	g.emit(tag)
	g.emit(">")
	g.emit(val)
	g.emit("</")
	g.emit(tag)
	g.emit(">")
}

func (g *gen) open(tag string)  { g.emit("<" + tag + ">") }
func (g *gen) close(tag string) { g.emit("</" + tag + ">") }

func (g *gen) sentence(n int) string {
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += words[g.r.Intn(len(words))]
	}
	return out
}

func (g *gen) site() {
	g.open("site")
	g.regions()
	g.categoriesSection()
	g.catgraph()
	g.people()
	g.openAuctionsSection()
	g.closedAuctionsSection()
	g.close("site")
}

var regionNames = []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}

func (g *gen) regions() {
	g.open("regions")
	per := g.items / len(regionNames)
	extra := g.items % len(regionNames)
	id := 0
	for ri, region := range regionNames {
		count := per
		if ri < extra {
			count++
		}
		g.open(region)
		for i := 0; i < count; i++ {
			g.item(id)
			id++
		}
		g.close(region)
	}
	g.close("regions")
}

func (g *gen) item(id int) {
	g.open("item")
	g.leaf("item_id", fmt.Sprintf("item%d", id))
	g.leaf("location", "United States")
	g.leaf("quantity", fmt.Sprint(1+g.r.Intn(5)))
	g.leaf("name", g.sentence(2))
	g.leaf("payment", "Cash Creditcard")
	g.open("description")
	g.leaf("text", g.sentence(60+g.r.Intn(90)))
	g.close("description")
	g.leaf("shipping", "Will ship internationally")
	for i := 0; i <= g.r.Intn(3); i++ {
		g.open("incategory")
		g.leaf("category_ref", fmt.Sprintf("category%d", g.r.Intn(g.categories)))
		g.close("incategory")
	}
	g.open("mailbox")
	for i := 0; i < g.r.Intn(2); i++ {
		g.open("mail")
		g.leaf("from", g.sentence(2))
		g.leaf("to", g.sentence(2))
		g.leaf("date", g.date())
		g.leaf("text", g.sentence(40+g.r.Intn(60)))
		g.close("mail")
	}
	g.close("mailbox")
	g.close("item")
}

func (g *gen) date() string {
	return fmt.Sprintf("%02d/%02d/%04d", 1+g.r.Intn(12), 1+g.r.Intn(28), 1998+g.r.Intn(4))
}

func (g *gen) categoriesSection() {
	g.open("categories")
	for i := 0; i < g.categories; i++ {
		g.open("category")
		g.leaf("category_id", fmt.Sprintf("category%d", i))
		g.leaf("name", g.sentence(2))
		g.open("description")
		g.leaf("text", g.sentence(30+g.r.Intn(40)))
		g.close("description")
		g.close("category")
	}
	g.close("categories")
}

func (g *gen) catgraph() {
	g.open("catgraph")
	for i := 0; i < g.categories; i++ {
		g.open("edge")
		g.leaf("edge_from", fmt.Sprintf("category%d", g.r.Intn(g.categories)))
		g.leaf("edge_to", fmt.Sprintf("category%d", g.r.Intn(g.categories)))
		g.close("edge")
	}
	g.close("catgraph")
}

func (g *gen) people() {
	g.open("people")
	for i := 0; i < g.persons; i++ {
		g.open("person")
		g.leaf("person_id", fmt.Sprintf("person%d", i))
		g.leaf("name", g.sentence(2))
		g.leaf("emailaddress", fmt.Sprintf("mailto:%s@%s.com", words[g.r.Intn(len(words))], words[g.r.Intn(len(words))]))
		if g.r.Intn(2) == 0 {
			g.leaf("phone", fmt.Sprintf("+%d (%d) %d", g.r.Intn(99), g.r.Intn(999), g.r.Intn(99999999)))
		}
		if g.r.Intn(2) == 0 {
			g.open("address")
			g.leaf("street", fmt.Sprintf("%d %s St", 1+g.r.Intn(99), words[g.r.Intn(len(words))]))
			g.leaf("city", g.sentence(1))
			g.leaf("country", "United States")
			g.leaf("zipcode", fmt.Sprint(10000+g.r.Intn(89999)))
			g.close("address")
		}
		// Roughly half the persons report an income (Q20 selects the rest;
		// Q11 joins on it).
		hasIncome := g.r.Intn(2) == 0
		income := 9000 + g.r.Intn(90000)
		if hasIncome {
			g.leaf("person_income", fmt.Sprint(income))
		}
		if g.r.Intn(4) != 0 {
			g.open("profile")
			if hasIncome {
				g.leaf("profile_income", fmt.Sprint(income))
			}
			for j := 0; j < g.r.Intn(3); j++ {
				g.open("interest")
				g.leaf("interest_category", fmt.Sprintf("category%d", g.r.Intn(g.categories)))
				g.close("interest")
			}
			if g.r.Intn(2) == 0 {
				g.leaf("education", "Graduate School")
			}
			g.leaf("business", pick(g.r, "Yes", "No"))
			g.close("profile")
		}
		if g.r.Intn(3) == 0 {
			g.open("watches")
			for j := 0; j < g.r.Intn(3); j++ {
				g.open("watch")
				g.leaf("watch_open_auction", fmt.Sprintf("open_auction%d", g.r.Intn(g.openAuctions)))
				g.close("watch")
			}
			g.close("watches")
		}
		g.close("person")
	}
	g.close("people")
}

func pick(r *rand.Rand, a, b string) string {
	if r.Intn(2) == 0 {
		return a
	}
	return b
}

func (g *gen) openAuctionsSection() {
	g.open("open_auctions")
	for i := 0; i < g.openAuctions; i++ {
		g.open("open_auction")
		g.leaf("open_auction_id", fmt.Sprintf("open_auction%d", i))
		g.leaf("initial", fmt.Sprintf("%d.%02d", 1+g.r.Intn(300), g.r.Intn(100)))
		if g.r.Intn(2) == 0 {
			g.leaf("reserve", fmt.Sprint(10+g.r.Intn(500)))
		}
		for j := 0; j < g.r.Intn(4); j++ {
			g.open("bidder")
			g.leaf("date", g.date())
			g.open("personref")
			g.leaf("personref_person", fmt.Sprintf("person%d", g.r.Intn(g.persons)))
			g.close("personref")
			g.leaf("increase", fmt.Sprint(1+g.r.Intn(30)))
			g.close("bidder")
		}
		g.leaf("current", fmt.Sprint(10+g.r.Intn(1000)))
		g.open("itemref")
		g.leaf("itemref_item", fmt.Sprintf("item%d", g.r.Intn(g.items)))
		g.close("itemref")
		g.open("seller")
		g.leaf("seller_person", fmt.Sprintf("person%d", g.r.Intn(g.persons)))
		g.close("seller")
		g.leaf("quantity", fmt.Sprint(1+g.r.Intn(5)))
		g.leaf("type", pick(g.r, "Regular", "Featured"))
		g.open("interval")
		g.leaf("start", g.date())
		g.leaf("end", g.date())
		g.close("interval")
		g.close("open_auction")
	}
	g.close("open_auctions")
}

func (g *gen) closedAuctionsSection() {
	g.open("closed_auctions")
	for i := 0; i < g.closedAuctions; i++ {
		g.open("closed_auction")
		g.leaf("closed_auction_id", fmt.Sprintf("closed_auction%d", i))
		g.open("seller")
		g.leaf("seller_person", fmt.Sprintf("person%d", g.r.Intn(g.persons)))
		g.close("seller")
		g.open("buyer")
		g.leaf("buyer_person", fmt.Sprintf("person%d", g.r.Intn(g.persons)))
		g.close("buyer")
		g.open("itemref")
		g.leaf("itemref_item", fmt.Sprintf("item%d", g.r.Intn(g.items)))
		g.close("itemref")
		g.leaf("price", fmt.Sprintf("%d.%02d", 1+g.r.Intn(400), g.r.Intn(100)))
		g.leaf("date", g.date())
		g.leaf("quantity", fmt.Sprint(1+g.r.Intn(5)))
		g.leaf("type", pick(g.r, "Regular", "Featured"))
		if g.r.Intn(2) == 0 {
			g.open("annotation")
			g.open("author")
			g.leaf("author_person", fmt.Sprintf("person%d", g.r.Intn(g.persons)))
			g.close("author")
			g.open("description")
			g.leaf("text", g.sentence(25+g.r.Intn(35)))
			g.close("description")
			g.leaf("happiness", fmt.Sprint(1+g.r.Intn(10)))
			g.close("annotation")
		}
		g.close("closed_auction")
	}
	g.close("closed_auctions")
}
