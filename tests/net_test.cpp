#include <gtest/gtest.h>

#include "net/cctld.h"
#include "net/ipv4.h"
#include "net/url.h"
#include "util/rng.h"

namespace urlf::net {
namespace {

// --------------------------------------------------------------- Ipv4 ----

TEST(Ipv4Test, ParseAndFormat) {
  const auto ip = Ipv4Addr::parse("192.0.2.7");
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->toString(), "192.0.2.7");
  EXPECT_EQ(ip->value(), 0xC0000207u);
}

TEST(Ipv4Test, OctetConstructor) {
  EXPECT_EQ(Ipv4Addr(10, 0, 0, 1).toString(), "10.0.0.1");
  EXPECT_EQ(Ipv4Addr(255, 255, 255, 255).value(), 0xFFFFFFFFu);
}

TEST(Ipv4Test, RejectsMalformed) {
  EXPECT_FALSE(Ipv4Addr::parse(""));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4Addr::parse("256.0.0.1"));
  EXPECT_FALSE(Ipv4Addr::parse("a.b.c.d"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.04"));  // leading zero
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3."));
  EXPECT_FALSE(Ipv4Addr::parse(" 1.2.3.4"));
}

TEST(Ipv4Test, RejectsEveryMalformedShape) {
  for (const char* text :
       {".1.2.3.4", "1..2.3", "1.2.3.4.", "1.2.3.4.5", "1.2.3.4.5.6", "...",
        "256.1.2.3", "1.2.3.256", "999.1.1.1", "1234.1.1.1", "01.2.3.4",
        "1.02.3.4", "1.2.3.00", "+1.2.3.4", "1.+2.3.4", "-1.2.3.4",
        "1.2.3.4 ", "1.2.3.4/24", "1.2.3.0x1", "1,2,3,4"})
    EXPECT_FALSE(Ipv4Addr::parse(text)) << text;
}

TEST(Ipv4Test, AcceptsBoundaryOctets) {
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
  EXPECT_EQ(Ipv4Addr::parse("10.0.100.200"), Ipv4Addr(10, 0, 100, 200));
  EXPECT_EQ(Ipv4Addr::parse("1.20.0.9"), Ipv4Addr(1, 20, 0, 9));
}

TEST(Ipv4Test, Ordering) {
  EXPECT_LT(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  EXPECT_EQ(Ipv4Addr(10, 0, 0, 1).next(), Ipv4Addr(10, 0, 0, 2));
}

TEST(IpPrefixTest, ContainsAndSize) {
  const auto prefix = IpPrefix::parse("192.0.2.0/24");
  ASSERT_TRUE(prefix);
  EXPECT_EQ(prefix->size(), 256u);
  EXPECT_TRUE(prefix->contains(Ipv4Addr(192, 0, 2, 0)));
  EXPECT_TRUE(prefix->contains(Ipv4Addr(192, 0, 2, 255)));
  EXPECT_FALSE(prefix->contains(Ipv4Addr(192, 0, 3, 0)));
}

TEST(IpPrefixTest, BaseIsMasked) {
  const IpPrefix prefix(Ipv4Addr(10, 1, 2, 3), 16);
  EXPECT_EQ(prefix.base().toString(), "10.1.0.0");
  EXPECT_EQ(prefix.toString(), "10.1.0.0/16");
}

TEST(IpPrefixTest, SlashZeroCoversEverything) {
  const IpPrefix prefix(Ipv4Addr{}, 0);
  EXPECT_TRUE(prefix.contains(Ipv4Addr(255, 255, 255, 255)));
  EXPECT_EQ(prefix.size(), std::uint64_t{1} << 32);
}

TEST(IpPrefixTest, Slash32IsSingleHost) {
  const IpPrefix prefix(Ipv4Addr(1, 2, 3, 4), 32);
  EXPECT_EQ(prefix.size(), 1u);
  EXPECT_TRUE(prefix.contains(Ipv4Addr(1, 2, 3, 4)));
  EXPECT_FALSE(prefix.contains(Ipv4Addr(1, 2, 3, 5)));
}

TEST(IpPrefixTest, AddressAtBoundsChecked) {
  const auto prefix = IpPrefix::parse("10.0.0.0/30").value();
  EXPECT_EQ(prefix.addressAt(3).toString(), "10.0.0.3");
  EXPECT_THROW((void)prefix.addressAt(4), std::out_of_range);
}

TEST(IpPrefixTest, ParseRejectsMalformed) {
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0"));
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0/33"));
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0/"));
  EXPECT_FALSE(IpPrefix::parse("10.0.0/8"));
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0/x"));
}

TEST(IpPrefixTest, InvalidLengthThrows) {
  EXPECT_THROW(IpPrefix(Ipv4Addr{}, 33), std::invalid_argument);
  EXPECT_THROW(IpPrefix(Ipv4Addr{}, -1), std::invalid_argument);
}

// ---------------------------------------------------------------- Url ----

TEST(UrlTest, ParsesFullUrl) {
  const auto url =
      Url::parse("http://example.com:8080/path/page?x=1&y=2#frag");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->scheme(), "http");
  EXPECT_EQ(url->host(), "example.com");
  EXPECT_EQ(url->explicitPort(), 8080);
  EXPECT_EQ(url->effectivePort(), 8080);
  EXPECT_EQ(url->path(), "/path/page");
  EXPECT_EQ(url->query(), "x=1&y=2");  // fragment dropped
  EXPECT_EQ(url->requestTarget(), "/path/page?x=1&y=2");
}

TEST(UrlTest, DefaultsForBareHost) {
  const auto url = Url::parse("http://example.com");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->path(), "/");
  EXPECT_EQ(url->effectivePort(), 80);
  EXPECT_FALSE(url->explicitPort());
  EXPECT_EQ(url->toString(), "http://example.com/");
}

TEST(UrlTest, HttpsDefaultPort) {
  const auto url = Url::parse("https://secure.example.com/login");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->effectivePort(), 443);
}

TEST(UrlTest, HostIsLowercased) {
  const auto url = Url::parse("http://Example.COM/Path");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->host(), "example.com");
  EXPECT_EQ(url->path(), "/Path");  // path case preserved
}

TEST(UrlTest, IpLiteralHost) {
  const auto url = Url::parse("http://10.0.0.1:8080/webadmin/");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->host(), "10.0.0.1");
  EXPECT_EQ(url->explicitPort(), 8080);
}

TEST(UrlTest, SchemeIsCaseInsensitive) {
  const auto upper = Url::parse("HTTP://example.com/Page");
  ASSERT_TRUE(upper);
  EXPECT_EQ(upper->scheme(), "http");
  EXPECT_EQ(upper->toString(), "http://example.com/Page");
  const auto mixed = Url::parse("HtTpS://Secure.Example.COM:8443/Login?A=B");
  ASSERT_TRUE(mixed);
  EXPECT_EQ(mixed->scheme(), "https");
  EXPECT_EQ(mixed->host(), "secure.example.com");
  EXPECT_EQ(mixed->explicitPort(), 8443);
  EXPECT_EQ(mixed->toString(), "https://secure.example.com:8443/Login?A=B");
  EXPECT_FALSE(Url::parse("HTTPX://example.com/"));
  EXPECT_FALSE(Url::parse("HTTP:/example.com/"));
  EXPECT_FALSE(Url::parse("HTTPS//example.com/"));
}

TEST(UrlTest, SurroundingWhitespaceIsTrimmed) {
  const auto url = Url::parse(" \t http://Example.com/a?b=1 \r\n");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->toString(), "http://example.com/a?b=1");
  EXPECT_FALSE(Url::parse("http:// example.com/"));
  EXPECT_FALSE(Url::parse("http://exam ple.com/"));
}

TEST(UrlTest, IpLiteralHostsWithPorts) {
  const auto blockPage =
      Url::parse("http://10.9.0.8:15871/cgi-bin/blockpage.cgi?ws-session=7");
  ASSERT_TRUE(blockPage);
  EXPECT_EQ(blockPage->host(), "10.9.0.8");
  EXPECT_EQ(blockPage->explicitPort(), 15871);
  EXPECT_EQ(blockPage->query(), "ws-session=7");
  const auto tls = Url::parse("HTTPS://192.0.2.7:443/");
  ASSERT_TRUE(tls);
  EXPECT_EQ(tls->host(), "192.0.2.7");
  EXPECT_EQ(tls->explicitPort(), 443);
  EXPECT_EQ(tls->toString(), "https://192.0.2.7:443/");
  // Not a dotted quad, but still a well-formed hostname.
  EXPECT_EQ(Url::parse("http://01.2.3.4/")->host(), "01.2.3.4");
  EXPECT_FALSE(Url::parse("http://1.2.3.4.:80/"));
  EXPECT_FALSE(Url::parse("http://1.2.3.4:/"));
}

TEST(UrlTest, UpperCaseHostComesOutLowercase) {
  const auto url = Url::parse("http://WWW.CFAUTH.COM:8080/?cfru=AbC");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->host(), "www.cfauth.com");
  EXPECT_EQ(url->query(), "cfru=AbC");  // query case preserved
  EXPECT_EQ(*url, *Url::parse("http://www.cfauth.com:8080/?cfru=AbC"));
}

TEST(UrlTest, RejectsMalformed) {
  EXPECT_FALSE(Url::parse(""));
  EXPECT_FALSE(Url::parse("example.com"));           // no scheme
  EXPECT_FALSE(Url::parse("ftp://example.com/"));    // unsupported scheme
  EXPECT_FALSE(Url::parse("http://"));               // empty host
  EXPECT_FALSE(Url::parse("http://:80/"));           // empty host with port
  EXPECT_FALSE(Url::parse("http://user@host/"));     // userinfo unsupported
  EXPECT_FALSE(Url::parse("http://example.com:0/")); // port 0
  EXPECT_FALSE(Url::parse("http://example.com:99999/"));
  EXPECT_FALSE(Url::parse("http://bad host/"));
}

TEST(UrlTest, RoundTripsThroughToString) {
  const char* cases[] = {
      "http://example.com/",
      "http://example.com/path",
      "http://example.com:8080/path?q=1",
      "https://a.b.c.example.com/deep/path?x=y",
      "http://10.1.2.3:15871/cgi-bin/blockpage.cgi?ws-session=42",
  };
  for (const auto* text : cases) {
    const auto url = Url::parse(text);
    ASSERT_TRUE(url) << text;
    const auto again = Url::parse(url->toString());
    ASSERT_TRUE(again) << url->toString();
    EXPECT_EQ(*url, *again);
  }
}

TEST(UrlTest, QueryWithoutPath) {
  const auto url = Url::parse("http://example.com?x=1");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->path(), "/");
  EXPECT_EQ(url->query(), "x=1");
  EXPECT_EQ(url->requestTarget(), "/?x=1");
}

TEST(UrlTest, FragmentOnlySuffix) {
  const auto url = Url::parse("http://example.com#section");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->path(), "/");
  EXPECT_EQ(url->query(), "");
}

TEST(UrlTest, QueryParamLookup) {
  EXPECT_EQ(queryParam("a=1&b=2", "b").value(), "2");
  EXPECT_EQ(queryParam("a=1&b=2", "a").value(), "1");
  EXPECT_FALSE(queryParam("a=1&b=2", "c"));
  EXPECT_EQ(queryParam("flag&x=1", "flag").value(), "");
  EXPECT_FALSE(queryParam("", "a"));
  EXPECT_EQ(queryParam("ws-session=777", "ws-session").value(), "777");
}

TEST(UrlTest, ConstructorValidates) {
  EXPECT_THROW(Url("ftp", "x.com", std::nullopt, "/", ""),
               std::invalid_argument);
  EXPECT_THROW(Url("http", "", std::nullopt, "/", ""), std::invalid_argument);
  const Url url("HTTP", "EXAMPLE.com", std::nullopt, "p", "");
  EXPECT_EQ(url.scheme(), "http");
  EXPECT_EQ(url.host(), "example.com");
  EXPECT_EQ(url.path(), "/p");  // leading slash added
}

// ----------------------------------------------------------- Hostname ----

TEST(HostnameTest, ValidNames) {
  EXPECT_TRUE(isValidHostname("example.com"));
  EXPECT_TRUE(isValidHostname("a-b.example.info"));
  EXPECT_TRUE(isValidHostname("x"));
  EXPECT_TRUE(isValidHostname("denypagetests.netsweeper.com"));
}

TEST(HostnameTest, InvalidNames) {
  EXPECT_FALSE(isValidHostname(""));
  EXPECT_FALSE(isValidHostname(".example.com"));
  EXPECT_FALSE(isValidHostname("example..com"));
  EXPECT_FALSE(isValidHostname("example.com."));
  EXPECT_FALSE(isValidHostname("-example.com"));
  EXPECT_FALSE(isValidHostname("example-.com"));
  EXPECT_FALSE(isValidHostname("exa mple.com"));
  EXPECT_FALSE(isValidHostname("10.0.0.1"));  // IP literal is not a hostname
  EXPECT_FALSE(isValidHostname(std::string(254, 'a')));
}

TEST(HostnameTest, LabelLengthLimit) {
  const std::string longLabel(64, 'a');
  EXPECT_FALSE(isValidHostname(longLabel + ".com"));
  EXPECT_TRUE(isValidHostname(std::string(63, 'a') + ".com"));
}

TEST(DomainTest, TopLevelDomain) {
  EXPECT_EQ(topLevelDomain("starwasher.info"), "info");
  EXPECT_EQ(topLevelDomain("www.Example.COM"), "com");
  EXPECT_EQ(topLevelDomain("localhost"), "");
  EXPECT_EQ(topLevelDomain("10.0.0.1"), "");
}

TEST(DomainTest, RegistrableDomain) {
  EXPECT_EQ(registrableDomain("www.example.info"), "example.info");
  EXPECT_EQ(registrableDomain("example.info"), "example.info");
  EXPECT_EQ(registrableDomain("a.b.c.example.info"), "example.info");
  EXPECT_EQ(registrableDomain("localhost"), "localhost");
}

// -------------------------------------------------------------- ccTLD ----

TEST(CctldTest, RegistryCoversThePaperCountries) {
  for (const char* alpha2 : {"SA", "AE", "QA", "YE", "SY", "US", "CA", "PK"}) {
    const auto country = countryByAlpha2(alpha2);
    ASSERT_TRUE(country) << alpha2;
    EXPECT_EQ(country->alpha2, alpha2);
  }
}

TEST(CctldTest, LookupIsCaseInsensitive) {
  const auto country = countryByAlpha2("sa");
  ASSERT_TRUE(country);
  EXPECT_EQ(country->name, "Saudi Arabia");
}

TEST(CctldTest, LookupByName) {
  const auto country = countryByName("yemen");
  ASSERT_TRUE(country);
  EXPECT_EQ(country->alpha2, "YE");
  EXPECT_FALSE(countryByName("Atlantis"));
}

TEST(CctldTest, AllEntriesWellFormed) {
  for (const auto& country : allCountries()) {
    EXPECT_EQ(country.alpha2.size(), 2u);
    EXPECT_EQ(country.cctld.size(), 2u);
    EXPECT_FALSE(country.name.empty());
  }
  EXPECT_GE(allCountries().size(), 40u);
}

/// Property: every URL the hosting provider would mint parses and
/// round-trips.
class UrlMintProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UrlMintProperty, SyntheticHostsParse) {
  util::Rng rng(GetParam());
  const char* tlds[] = {"info", "com", "org", "net"};
  for (int i = 0; i < 100; ++i) {
    std::string host = "host" + std::to_string(rng.uniform(0, 999999));
    host += ".";
    host += tlds[rng.index(4)];
    ASSERT_TRUE(isValidHostname(host)) << host;
    const auto url = Url::parse("http://" + host + "/p?q=" +
                                std::to_string(rng.uniform(0, 99)));
    ASSERT_TRUE(url) << host;
    EXPECT_EQ(Url::parse(url->toString()).value(), *url);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, UrlMintProperty,
                         ::testing::Values(7u, 77u, 777u));

}  // namespace
}  // namespace urlf::net
